"""Monte Carlo simulation of the controlled particle system.

Paths follow dX_v = alpha_v(t, X) dt + sigma dW_v under any LinearProfile,
discretized by Euler-Maruyama (the noise is additive, so Milstein would
coincide).  A spectral profile (K(t) = V diag(rho(t)) V^T) is stepped in
the eigen-frame y = V^T x, where every step is elementwise:
y <- (1 - dt rho(t)) y + sigma sqrt(dt) eps.  The increments are drawn in
that frame (V^T W is again a standard Brownian motion), and paths are
rotated back to x = V y only at record times.  Scalar profiles (K = k I)
step x elementwise, dense ones multiply by K(t)^T, one matrix at a time.
A scalar or spectral profile's rates are tabulated on the whole step grid
by one call before the first step.

Gaussian increments come from counter-based Philox streams keyed by
(seed, step), with the (path, player) layout fixed inside each step's
block.  The blocks of the next steps are drawn ahead on a pool of
LG_THREADS threads (by default, as many as the process has cores; fewer
where the ring would exceed DRAW_RING_BUDGET) into a ring of preallocated
buffers, one per thread plus one, while the calling thread propagates.
Each block depends on (seed, step) alone, so the same config reproduces
bit-identical ensembles for any pool size.  The pool assumes that no idle
BLAS worker spins on the same cores: the command-line front end sets
OPENBLAS_THREAD_TIMEOUT before numpy loads, and a library caller who
loads numpy itself can set it too.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError
from .graphs import Graph, _fits, _integer, _vertex, philox
from .strategies import LinearProfile, _checked
from .threads import thread_count

#: Default number of Euler steps per horizon in acceptance runs.
DEFAULT_STEPS_PER_HORIZON = 500

#: Default ensemble size for acceptance runs.
DEFAULT_N_PATHS = 10_000

#: Bounded 1-Lipschitz test functions for concentration checks.
TEST_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "clipped_identity": lambda x: np.clip(x, -1.0, 1.0),
    "cosine": np.cos,
}

_TIME_MATCH_TOL = 1e-9

#: Largest ring of drawn-ahead increment blocks, in bytes.  The ring holds
#: one block more than there are draw threads, so where LG_THREADS (or the
#: core count) would overrun it, fewer threads draw.
DRAW_RING_BUDGET = 256 * 2**20


@dataclass(frozen=True)
class SimConfig:
    n_paths: int = DEFAULT_N_PATHS
    dt: float = 1.0 / DEFAULT_STEPS_PER_HORIZON
    seed: int = 0
    record_times: tuple[float, ...] = ()

    def steps_for(self, T: float) -> int:
        steps = _whole_steps(T, self.dt, T)
        if steps is None or steps < 1:
            raise ParameterError(f"dt = {self.dt} does not divide the horizon T = {T}")
        _fits(steps, f"dt = {self.dt} gives {steps} steps over T = {T}")
        return steps


def _whole_steps(t: float, dt: float, T: float) -> int | None:
    """The grid rule of a horizon T: the number of dt steps to t, if t is a
    whole number of them to within _TIME_MATCH_TOL * max(1, T); else None."""
    steps = round(t / dt) if math.isfinite(t / dt) else 0  # NaN or overflow: only a t near 0 can match
    return steps if abs(steps * dt - t) <= _TIME_MATCH_TOL * max(1.0, T) else None


@dataclass
class PathEnsemble:
    """Recorded states of a simulation: states[t] has shape (n_paths, n),
    for every requested time t; times on one grid step share one array."""

    times: tuple[float, ...]
    states: dict[float, np.ndarray]

    def at(self, t: float) -> np.ndarray:
        rec = min(self.times, key=lambda r: abs(r - t), default=math.inf)  # the nearest recorded time
        if not abs(rec - t) <= _TIME_MATCH_TOL:
            raise ParameterError(f"time {t} was not recorded (recorded: {self.times})")
        return self.states[rec]


def draw_threads(block_bytes: int) -> int:
    """Threads that draw ahead: thread_count(), but at least one and no
    more than DRAW_RING_BUDGET leaves room for, with one block per thread
    plus the one being propagated."""
    return max(1, min(thread_count(), DRAW_RING_BUDGET // block_bytes - 1))


def simulate(g: Graph, prof: LinearProfile, sigma: float, cfg: SimConfig) -> PathEnsemble:
    """Euler-Maruyama ensemble of the controlled system under the profile.

    A scalar or spectral profile's rates come from one prof.rates call on
    the step times, a row per step; a spectral one's at eigen.eigenvalues,
    a column per eigenvector of the frame.  That table holds steps x n
    floats for a spectral profile (0.8 MB at n = 200 and 500 steps), less
    than the ring of drawn-ahead blocks whenever
    steps <= (draw threads + 1) x n_paths."""
    _checked(g, prof, None, sigma=sigma)
    _integer(cfg.n_paths, f"n_paths must be an integer >= 1, got {cfg.n_paths!r}", 1)
    _fits(cfg.n_paths * g.n, f"{cfg.n_paths} paths of {g.n} players hold {cfg.n_paths * g.n} states")
    if not 0.0 < cfg.dt < np.inf:
        raise ParameterError(f"dt must be positive and finite, got {cfg.dt}")
    philox(cfg.seed)  # checks the seed before anything is allocated
    steps = cfg.steps_for(prof.T)
    record_times = cfg.record_times or (prof.T,)
    record_index: dict[int, list[float]] = {}  # step -> the record times on it
    for t in record_times:
        j = _whole_steps(t, cfg.dt, prof.T)
        if j is None or not 0 <= j <= steps:
            raise ParameterError(f"record time {t} is not on the simulation grid")
        record_index.setdefault(j, []).append(float(t))

    # A spectral profile is stepped in the eigen-frame, y = V^T x per path.
    basis = prof.eigen.eigenvectors if prof.eigen is not None else None
    shape = (cfg.n_paths, g.n)
    x = np.zeros(shape)  # y in the eigen-frame
    drift = np.empty(shape) if basis is None else None
    times, rates = np.arange(steps) * cfg.dt, None
    if basis is not None:
        rates = prof.rates(times, prof.eigen.eigenvalues)
        rates *= -cfg.dt  # the decay factors 1 - dt * rho(t), a row per step
        rates += 1.0
    elif prof.rates is not None:
        rates = prof.rates(times)
    ring = [np.empty(shape) for _ in range(draw_threads(x.nbytes) + 1)]
    noise_scale = sigma * np.sqrt(cfg.dt)
    states: dict[float, np.ndarray] = {}

    def record(j: int) -> None:
        if j in record_index:
            state = x.copy() if basis is None else x @ basis.T
            states.update(dict.fromkeys(record_index[j], state))

    def prepare(j: int) -> None:
        # Runs on the pool.  Step j's draws depend on (seed, j) alone, so any
        # thread may fill them.
        block = ring[j % len(ring)]
        philox(cfg.seed, j).standard_normal(out=block)
        block *= noise_scale

    record(0)
    pool = ThreadPoolExecutor(max_workers=len(ring) - 1, thread_name_prefix="graphflock-draws")
    try:
        pending = deque(pool.submit(prepare, j) for j in range(min(len(ring), steps)))
        with np.errstate(over="ignore", invalid="ignore"):  # explosions are detected below
            for j in range(steps):
                if basis is not None:
                    x *= rates[j]
                else:
                    if rates is not None:
                        # K = k I: the product x @ K^T is exactly k * x.
                        np.multiply(x, rates[j], out=drift)
                    else:
                        # One feedback matrix at a time: memory stays O(n^2), not steps * n^2.
                        drift = x @ prof.at(j * cfg.dt).T
                    drift *= cfg.dt
                    x -= drift
                pending.popleft().result()
                x += ring[j % len(ring)]
                if j + len(ring) < steps:
                    pending.append(pool.submit(prepare, j + len(ring)))
                # The sum is finite unless an entry is not, or the sum overflows.
                if not math.isfinite(x.sum()) and not np.isfinite(x).all():
                    bad_path = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
                    raise NumericError(f"state exploded at step {j + 1}, path {bad_path}")
                record(j + 1)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

    return PathEnsemble(tuple(sorted(states)), states)


def _jackknife_se(delete_one: np.ndarray) -> np.ndarray:
    """Jackknife standard error from the delete-one statistic values
    (leading axis indexes the deleted sample)."""
    p = delete_one.shape[0]
    centered = delete_one - delete_one.mean(axis=0)
    return np.sqrt((p - 1) / p * (centered**2).sum(axis=0))


def _variance_and_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased sample variance per column and its jackknife SE."""
    p = samples.shape[0]
    if p < 3:
        raise ParameterError("need at least 3 paths for variance standard errors")
    centered = samples - samples.mean(axis=0)
    ss = (centered**2).sum(axis=0)
    variance = ss / (p - 1)
    # Delete-one sum of squares: SS - d_i^2 * p/(p-1).
    ss_del = ss[None, :] - centered**2 * (p / (p - 1))
    return variance, _jackknife_se(ss_del / (p - 2))


@dataclass(frozen=True)
class EnsembleStats:
    t: float
    mean: np.ndarray
    mean_se: np.ndarray
    variance: np.ndarray
    variance_se: np.ndarray
    covariances: dict


def ensemble_stats(e: PathEnsemble, t: float, pairs: list[tuple[int, int]] | None = None) -> EnsembleStats:
    """Unbiased sample moments at a recorded time, with jackknife standard
    errors; covariances are computed for the requested vertex pairs.  A
    moment that overflows is inf or NaN, without a warning: the caller
    decides whether a non-finite statistic is an error."""
    samples = e.at(t)
    p, n = samples.shape
    with np.errstate(over="ignore", invalid="ignore"):
        variance, variance_se = _variance_and_se(samples)  # first: it needs p >= 3
        mean = samples.mean(axis=0)
        mean_se = samples.std(axis=0, ddof=1) / np.sqrt(p)
        covariances = {}
        if pairs:
            centered = samples - mean
            for u, v in pairs:
                u, v = _vertex(n, u), _vertex(n, v)
                sxy = float(centered[:, u] @ centered[:, v])
                cov = sxy / (p - 1)
                sxy_del = sxy - centered[:, u] * centered[:, v] * (p / (p - 1))
                covariances[(u, v)] = (cov, float(_jackknife_se(sxy_del / (p - 2))))
    return EnsembleStats(
        t=float(t), mean=mean, mean_se=mean_se, variance=variance,
        variance_se=variance_se, covariances=covariances,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    sample_variance: float
    standard_error: float
    bound: float
    passed: bool


def empirical_measure_test(
    e: PathEnsemble, t: float, h, covariance: np.ndarray
) -> ConcentrationReport:
    """Concentration check for the empirical average of a bounded
    1-Lipschitz test function over the population.

    Compares the across-path variance of (1/n) sum_v h(X_v(t)) with the
    Gaussian-Poincare bound (1/n^2) sum_{j,k} |Cov(X_j, X_k)| computed
    from the analytic covariance matrix; passes when the sample variance
    stays within three standard errors of the bound.
    """
    if isinstance(h, str):
        try:
            h = TEST_FUNCTIONS[h]
        except KeyError as exc:
            raise ParameterError(
                f"unknown test function {h!r}; choose from {sorted(TEST_FUNCTIONS)}"
            ) from exc
    samples = e.at(t)
    n = samples.shape[1]
    covariance = np.asarray(covariance, dtype=float)
    if covariance.shape != (n, n):
        raise ParameterError(f"covariance must be {n}x{n}, got {covariance.shape}")
    averages = np.asarray(h(samples)).mean(axis=1)
    variance, se = _variance_and_se(averages[:, None])
    bound = float(np.abs(covariance).sum()) / n**2
    sample_variance = float(variance[0])
    standard_error = float(se[0])
    return ConcentrationReport(
        sample_variance=sample_variance,
        standard_error=standard_error,
        bound=bound,
        passed=sample_variance <= bound + 3.0 * standard_error,
    )
