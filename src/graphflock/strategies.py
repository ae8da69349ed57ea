"""Cost evaluation, best responses, and approximate-equilibrium audits.

A LinearProfile assigns every player the feedback control
alpha_i(t, x) = -(row i of K(t)) . x.  Costs under a profile are computed
by deterministic moment propagation; a best response against a frozen
profile has a rank-one value matrix F = phi phi^T with phi = psi / sqrt(z),
for a linear backward ODE in psi and z (derivation in best_response).
Together they quantify how far any profile is from equilibrium, which is
what the Nash and epsilon-Nash audits report.

A profile has one form.  A modal one is diagonal over a few modes: K(t)
is k(t) I for a scalar profile (mean-field, zero), and sum_lam p_lam(t)
Pi_lam over L's eigenspaces for a spectral one (the equilibrium, the
planner on regular graphs); its rates are evaluated on the whole
half-step grid at once, and its costs come from a few ODEs per mode.  A
dense profile (custom, the planner elsewhere) gives K(t) as a matrix,
evaluated one RK4 step at a time.  A best response's psi lies in a
basis B (_basis) picked from the form, where its ODE and costs see a
player only through weights shared by a class (_players), so _rank_one
solves an audit at once: one column for a scalar profile, or a spectral
one on a transitive graph, else one per player.  Solvers use rk4_step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError
from .flow import DEFAULT_ODE_STEPS, rk4_step
from .graphs import Graph
from .equilibrium import EquilibriumKernel, p_eigenvalues
from .spectral import EigenSystem


@dataclass
class LinearProfile:
    """Time-dependent linear feedback profile on a uniform grid of [0, T].

    Exactly one of rates and matrix_fn is set.  rates(t) is k for a scalar
    profile, K(t) = k I, or with eigen (L's eigensystem) one rate per
    eigenvalue, K(t) = V diag(rates(t)) V^T; an array of times gets a
    row per time.  matrix_fn(t) is a dense K(t).  Any t in [0, T] works;
    the grid fixes the discretization of the cost and Riccati solvers.
    """

    n: int
    T: float
    grid: np.ndarray
    tag: str
    rates: Callable | None = None
    eigen: EigenSystem | None = None
    matrix_fn: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        if (self.rates is None) == (self.matrix_fn is None):
            raise ParameterError("a profile sets exactly one of rates and matrix_fn")

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def at(self, t: float) -> np.ndarray:
        """The dense n x n feedback matrix K(t), whatever the form."""
        if self.matrix_fn is not None:
            return self.matrix_fn(float(t))
        rates = self.rates(float(t))
        return rates * np.eye(self.n) if self.eigen is None else self.eigen.reconstruct(rates)


def _uniform_grid(T: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ParameterError(f"profile needs at least one step, got {steps}")
    return np.linspace(0.0, T, steps + 1)


def mf_profile(g: Graph, c: float, T: float, steps: int = DEFAULT_ODE_STEPS) -> LinearProfile:
    """Decentralized mean-field profile: every player applies
    -c x_i / (1 + c(T - t)), independent of the graph."""
    return LinearProfile(g.n, float(T), _uniform_grid(T, steps), "mean_field", lambda t: c / (1.0 + c * (T - t)))


def equilibrium_profile(k: EquilibriumKernel) -> LinearProfile:
    """Profile whose rows are the equilibrium feedback P(t), in spectral
    form: the kernel's eigensystem and P(t)'s eigenvalues p_eigenvalues(k, t)."""
    return LinearProfile(k.n, k.T, k.schedule.grid.copy(), "equilibrium", lambda t: p_eigenvalues(k, t), k.eigen)


def zero_profile(g: Graph, T: float, steps: int = DEFAULT_ODE_STEPS) -> LinearProfile:
    """All players apply the zero control (states are Brownian motions)."""
    return LinearProfile(g.n, float(T), _uniform_grid(T, steps), "zero", lambda t: 0.0 * t)


def custom_profile(
    g: Graph, T: float, matrix_fn: Callable[[float], np.ndarray], steps: int = DEFAULT_ODE_STEPS
) -> LinearProfile:
    return LinearProfile(n=g.n, T=float(T), grid=_uniform_grid(T, steps), tag="custom", matrix_fn=matrix_fn)


def alignment_functionals(g: Graph) -> np.ndarray:
    """Row i is the terminal functional whose square is penalized for
    player i: e_i - (neighbor average), or e_i alone for isolated i; a
    dense n x n matrix (_align applies it without one)."""
    out = np.eye(g.n)
    rows = g.rows
    out[rows, g.indices] = -1.0 / g.degrees[rows]
    return out


def _align(g: Graph, x: np.ndarray) -> np.ndarray:
    """alignment_functionals(g) @ x from the neighbor lists: x_i minus the
    average of x over i's neighbors (x_i alone for isolated i)."""
    return x - _inverse_degrees(g.degrees) * np.bincount(g.rows, weights=x[g.indices], minlength=g.n)


def _inverse_degrees(degrees: np.ndarray) -> np.ndarray:
    """1/deg, the weight of each neighbor in l_i, or 0 for an isolated
    vertex; |l_i|^2 is 1 plus this."""
    deg = np.asarray(degrees, dtype=float)
    return np.divide(1.0, deg, out=np.zeros(deg.shape), where=deg > 0)


def _check_profile(g: Graph, prof: LinearProfile) -> None:
    if prof.n != g.n:
        raise ParameterError(f"profile is for {prof.n} players, graph has {g.n}")


def profile_costs(
    g: Graph,
    prof: LinearProfile,
    sigma: float,
    c: float,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """Expected cost of every player under the profile, in one propagation.

    The state is Gaussian with mean m and covariance S solving
    m' = -K m and S' = -K S - S K^T + sigma^2 I; player i accumulates
    (1/2) k_i (S + m m^T) k_i^T along the way (k_i = row i of K) plus the
    terminal penalty (c/2) l_i (S(T) + m m^T) l_i^T.  Integration is RK4
    on the profile grid; a scalar or spectral profile propagates its modes
    instead (_modal_costs).
    """
    _check_profile(g, prof)
    n = g.n
    m = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if m.shape != (n,):
        raise ParameterError(f"x0 must have length {n}")
    if prof.matrix_fn is None:
        return _modal_costs(g, prof, sigma, c, None if x0 is None else m)
    h = prof.T / prof.steps
    eye = np.eye(n)
    sig2 = sigma**2
    stage = _stages(prof)
    # One array holds the state: S in rows 0..n-1, m in row n, costs in row n + 1.
    y = np.zeros((n + 2, n))
    y[n] = m

    def derivs(y_cur, kmat):
        s_cur, m_cur = y_cur[:n], y_cur[n]
        second = s_cur + np.outer(m_cur, m_cur)
        out = np.empty_like(y_cur)
        out[:n] = -kmat @ s_cur - s_cur @ kmat.T + sig2 * eye
        out[n] = -kmat @ m_cur
        out[n + 1] = 0.5 * np.vecdot(kmat @ second, kmat)
        return out

    for j in range(prof.steps):
        y = rk4_step(derivs, y, h, (stage(2 * j), stage(2 * j + 1), stage(2 * j + 2)))
        y[:n] = 0.5 * (y[:n] + y[:n].T)

    functionals = alignment_functionals(g)
    second = y[:n] + np.outer(y[n], y[n])
    return y[n + 1] + 0.5 * c * np.vecdot(functionals @ second, functionals)


def _stages(prof: LinearProfile) -> Callable[[int], np.ndarray]:
    """j -> the coefficient at the j-th half-step time: a modal profile's
    rates, one per basis vector of _basis (k twice for a scalar profile,
    an eigenspace's at its first eigenvalue), from one call; a dense K,
    evaluated on demand and kept until the next."""
    times = np.linspace(0.0, prof.T, 2 * prof.steps + 1)
    if prof.matrix_fn is not None:
        return functools.lru_cache(maxsize=1)(lambda j: prof.matrix_fn(float(times[j])))
    rates = prof.rates(times)
    return (np.column_stack((rates, rates)) if prof.eigen is None else rates[:, prof.eigen.eigenspaces()]).__getitem__


def _modal_costs(g: Graph, prof: LinearProfile, sigma: float, c: float, x0: np.ndarray | None) -> np.ndarray:
    """profile_costs for a modal K(t): on the orthogonal columns of
    B = _basis(g, prof, i), S B = B diag(s) and B^T m = diag(phi) B^T x0, with
    s_k' = -2 p_k s_k + sigma^2, s_k(0) = 0, phi_k' = -p_k phi_k, phi_k(0) = 1.
    With e_i = B u, l_i = B a and G = B^T B (_players), player i's running cost accrues
    (1/2) sum_k p_k^2 s_k u_k^2 G_kk + (1/2) (sum_k p_k phi_k u_k (B^T x0)_k)^2,
    so one propagation carries int p_k^2 s_k / 2 per mode and, with x0,
    R_kl = int p_k phi_k p_l phi_l / 2; the terminal penalty is
    (c/2) (sum_k s_k a_k^2 G_kk + (sum_k phi_k a_k (B^T x0)_k)^2)."""
    h = prof.T / prof.steps
    sig2 = sigma**2
    stage, grams, which, columns, coords = _players(g, prof, x0)
    _, u, a = np.split(columns[:, :1], 3)  # the same for every player of a modal profile

    def derivs(y, p):
        out = np.empty_like(y)
        out[0] = -2.0 * p * y[0] + sig2
        out[1] = -p * y[1]
        out[2] = 0.5 * p * p * y[0]
        if x0 is not None:
            out[3:] = 0.5 * np.outer(p * y[1], p * y[1])
        return out

    y = np.zeros((3 if x0 is None else 3 + len(grams), len(grams)))  # s, phi, the running cost of s, then R
    y[1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends as a refused inf or NaN
        for j in range(prof.steps):
            y = rk4_step(derivs, y, h, (stage(2 * j), stage(2 * j + 1), stage(2 * j + 2)))
        s, phi, run_s = y[:3]
        costs = (run_s @ (u * u * grams) + 0.5 * c * (s @ (a * a * grams)))[which]
        if coords is not None:
            ex, lx = coords * u.T, coords * a.T
            costs += np.einsum("ik,kl,il->i", ex, y[3:], ex) + 0.5 * c * (lx @ phi) ** 2
    return costs


def cost_under_profile(
    g: Graph,
    prof: LinearProfile,
    i: int,
    sigma: float,
    c: float,
    x0: np.ndarray | None = None,
) -> float:
    """Player i's expected cost under the profile."""
    if not 0 <= i < g.n:
        raise ParameterError(f"invalid player index {i}")
    return float(profile_costs(g, prof, sigma, c, x0)[i])


@dataclass
class BestResponse:
    """Optimal value and feedback of one player against a frozen profile."""

    value: float
    grid: np.ndarray
    feedback: np.ndarray  # feedback[j] = optimal control row at grid[j]


def best_response(
    g: Graph,
    prof: LinearProfile,
    i: int,
    c: float,
    sigma: float,
    x0: np.ndarray | None = None,
) -> BestResponse:
    """Exact best response of player i with all other rows of the profile
    frozen.

    Freezing opponents makes player i's problem a linear-quadratic control
    problem.  The quadratic value ansatz v(t, x) = x^T F(t) x / 2 + h(t)
    turns its HJB equation into the backward Riccati system

        F' = N F + F N^T + F e_i e_i^T F,   N = K^T (I - e_i e_i^T),
        h' = -(sigma^2 / 2) Tr F,
        F(T) = c l l^T,   h(T) = 0,

    with l player i's terminal alignment functional, and the optimal
    control is -(e_i^T F(t)) x.  F = phi phi^T, phi = psi / sqrt(z), solves
    it exactly (Riccati substitution; Reid, 1972) for the linear system

        psi' = N psi,   psi(T) = sqrt(c) l,   z' = -(e_i^T psi)^2,   z(T) = 1,

    so F stays rank one and, as z >= 1, cannot blow up unless psi does.
    The value x0^T F(0) x0 / 2 + h(0) is (x0 . psi(0))^2 / (2 z(0)) +
    (sigma^2/2) int |psi|^2 / z, the feedback row (e_i^T phi) phi^T.
    _rank_one solves in _basis; an unresolved step raises NumericError.
    """
    _check_profile(g, prof)
    if not 0 <= i < g.n:
        raise ParameterError(f"invalid player index {i}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (g.n,):
            raise ParameterError(f"x0 must have length {g.n}")
    (value,), path = _rank_one(g, prof, c, sigma, x0, [i], trace=True)
    if not math.isfinite(value):
        raise NumericError(f"player {i}'s best response is not finite: {prof.steps} steps do not resolve the profile")
    basis, gamma = _basis(g, prof, i), path[:, :, 0]
    return BestResponse(float(value), prof.grid.copy(), (gamma @ basis[i])[:, None] * (gamma @ basis.T))


def _basis(g: Graph, prof: LinearProfile, i: int) -> np.ndarray:
    """Player i's basis B for psi = B gamma, whose columns are orthogonal:
    I for a dense K, [e_i, l_i - e_i] for K = k I (l_i - e_i is 0 at i),
    and [Pi_lam e_i] for K = sum_lam p_lam Pi_lam.  K^T B = B Kt^T for
    Kt = _stages(prof)(j), and e_i and l_i lie in B's span, so psi does."""
    if prof.matrix_fn is not None:
        return np.eye(g.n)
    if prof.eigen is None:
        step = np.zeros(g.n)
        step[g.neighbors(i)] = -_inverse_degrees(g.degrees[i])
        return np.column_stack((np.eye(1, g.n, i)[0], step))
    v = prof.eigen.eigenvectors
    return np.add.reduceat(v * v[i], prof.eigen.eigenspaces(), axis=1)


def _players(g: Graph, prof: LinearProfile, x0: np.ndarray | None) -> tuple:
    """The stage and, for B = _basis(g, prof, i), the weights of each class of
    alike players: diag(B^T B) as a column per class (grams); each player's
    class (which); the solved columns stacking w = B^T e_i, u and a (e_i = B u,
    l_i = B a), one for all classes or one per class; B^T x0 as row i (None
    for x0 = None).  Dense: a class per player, w = u = e_i, a = l_i,
    B^T B = I.  Scalar: a class per degree, one column w = u = (1, 0),
    a = (1, 1), B^T B = diag(1, 1/deg i).  Spectral: w = diag(B^T B) =
    (e_i^T Pi_lam e_i), u = 1, a = -lam; a class per player, or one on a
    transitive graph, where the graph's automorphisms commute with Pi_lam,
    so e_i^T Pi_lam e_i = multiplicity / n and eigenvectors are read only for x0."""
    n, stage = g.n, _stages(prof)
    if prof.matrix_fn is not None:
        eye = np.eye(n)
        coords = None if x0 is None else np.broadcast_to(x0, (n, n))
        return stage, np.ones((n, n)), np.arange(n), np.vstack((eye, eye, alignment_functionals(g).T)), coords
    if prof.eigen is None:
        degrees, which = np.unique(g.degrees, return_inverse=True)
        grams = np.vstack((np.ones(degrees.size), _inverse_degrees(degrees)))
        coords = None if x0 is None else np.column_stack((x0, _align(g, x0) - x0))
        return stage, grams, which, np.array([[1.0], [0.0], [1.0], [0.0], [1.0], [1.0]]), coords
    starts = prof.eigen.eigenspaces()
    lam = prof.eigen.eigenvalues[starts]
    if g.transitivity.is_transitive():
        grams, which = (np.diff(starts, append=n) / n)[:, None], np.zeros(n, int)
    else:
        grams, which = np.add.reduceat(prof.eigen.eigenvectors**2, starts, axis=1).T, np.arange(n)
    coords = None
    if x0 is not None:
        v = prof.eigen.eigenvectors
        coords = np.add.reduceat(v * (x0 @ v), starts, axis=1)
    columns = np.vstack((grams, np.ones(grams.shape), np.broadcast_to(-lam[:, None], grams.shape)))
    return stage, grams, which, columns, coords


def _rank_one(
    g: Graph, prof: LinearProfile, c: float, sigma: float, x0: np.ndarray | None, players, trace: bool = False
) -> tuple:
    """Best-response values of players (indices) from one linear solve for
    every psi = B gamma, in which players of one class (_players) share one.

    With W, U and A the solved columns' w, u and a, s_j = w_j^T gamma_j
    (that is, e_i^T psi) and K^T B = B Kt^T (Kt = stage(j) at the j-th
    half-step time, a vector when diagonal), Gamma's columns and z solve

        Gamma' = Kt^T (Gamma - U diag s),   Gamma(T) = sqrt(c) A,   z' = -s^2,   z(T) = 1

    by backward RK4 on the profile grid, one evaluation of Kt per stage
    for all columns.  Q' = -Gamma * Gamma / z, Q(T) = 0, alongside gives
    Q(0) = int_0^T gamma^2 / z entrywise, and player i's value is
    (B^T x0 . gamma(0))^2 / (2 z(0)) + (sigma^2 / 2) sum_k (B^T B)_kk Q_k.
    z grows by a factor of about 1 + dt phi_i^2 per step; a column whose z
    more than doubles is unresolved (dt > 1 / phi_i^2) and turns NaN.

    Returns the values and, with trace, Gamma / sqrt(z) at every grid
    time (row j at grid[j]), else None.
    """
    stage, grams, which, columns, coords = _players(g, prof, x0)
    solved, cls = np.unique(which[players], return_inverse=True)
    grams = grams[:, solved]
    w, u, a = np.split(columns[:, solved] if columns.shape[1] > 1 else columns, 3)
    m, dt = len(a), prof.T / prof.steps
    y = np.vstack((math.sqrt(c) * a, np.zeros(a.shape), np.ones(a.shape[1])))  # Gamma, Q, z
    path = np.repeat(y[None], prof.steps + 1, axis=0) if trace else None

    def rhs(y_cur, kt):
        gamma = y_cur[:m]
        s = np.vecdot(w, gamma, axis=0)
        lhs = gamma - u * s
        drift = kt[:, None] * lhs if kt.ndim == 1 else kt.T @ lhs
        return np.vstack((drift, -gamma * gamma / y_cur[-1], -s * s))

    # Columns are independent: a NaN set in one (an unresolved step), or an overflow, stays there.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(prof.steps, 0, -1):
            z = y[-1]
            y = rk4_step(rhs, y, -dt, (stage(2 * j), stage(2 * j - 1), stage(2 * j - 2)))
            y[:, y[-1] > 2.0 * z] = np.nan
            if trace:
                path[j - 1] = y
        values = (0.5 * sigma**2 * np.vecdot(grams, y[m:-1], axis=0))[cls]
        if coords is not None:
            ends = np.broadcast_to(y[:m] / np.sqrt(y[-1]), grams.shape).T[cls]
            values += 0.5 * np.vecdot(coords[players], ends) ** 2
        if trace:
            path = path[:, :m] / np.sqrt(path[:, -1:])
    return values, path


def deviation_gap(
    g: Graph,
    prof: LinearProfile,
    i: int,
    c: float,
    sigma: float,
    x0: np.ndarray | None = None,
) -> float:
    """How much player i saves by deviating optimally from the profile.

    Nonnegative up to discretization noise; zero exactly at a Nash
    equilibrium.
    """
    cost = cost_under_profile(g, prof, i, sigma, c, x0)
    return cost - best_response(g, prof, i, c, sigma, x0).value


@dataclass(frozen=True)
class EpsilonBounds:
    """Per-player deviation-gain guarantees for the mean-field profile."""

    per_vertex: np.ndarray
    aggregate: float
    avg_degree_diagnostic: float


def epsilon_bounds(g: Graph, c: float, T: float, sigma: float) -> EpsilonBounds:
    """Guaranteed epsilon-Nash certificates of the mean-field profile:

        eps_v = sigma^2 * (cT/(1+cT)) * sqrt( cT(2+cT) / deg(v) ),

    zero for isolated vertices.  The aggregate bound substitutes
    max(1, min degree), and the diagnostic (1/n) sum (1 v deg)^(-1/2)
    measures denseness in the averaged sense.
    """
    front = sigma**2 * (c * T / (1.0 + c * T)) * math.sqrt(c * T * (2.0 + c * T))
    deg = g.degrees.astype(float)
    per_vertex = np.where(deg >= 1, front / np.sqrt(np.maximum(deg, 1.0)), 0.0)
    aggregate = front / math.sqrt(max(1, g.min_degree))
    diagnostic = float(np.mean(1.0 / np.sqrt(np.maximum(deg, 1.0))))
    return EpsilonBounds(per_vertex=per_vertex, aggregate=aggregate, avg_degree_diagnostic=diagnostic)


def nash_audit(
    g: Graph,
    prof: LinearProfile,
    c: float,
    sigma: float,
    x0: np.ndarray | None = None,
    gap_tolerance: float = 1e-5,
) -> dict:
    """Audit every player's incentive to deviate from the profile.

    For mean-field profiles each gap is compared against its epsilon_v
    certificate; for other profiles against the numerical tolerance alone
    (an exact equilibrium should show pure discretization error).  A cost
    under the profile that is below -gap_tolerance or not finite, or a gap
    below -gap_tolerance or NaN (a best response worse than the profile or
    not finite), means the grid does not resolve the problem: NumericError.
    """
    _check_profile(g, prof)
    costs = profile_costs(g, prof, sigma, c, x0)
    unresolved = f"{prof.steps} steps do not resolve the profile"
    bad = np.flatnonzero(~((costs >= -gap_tolerance) & (costs < np.inf)))  # a NaN cost too
    if bad.size:
        i = int(bad[0])
        raise NumericError(f"player {i}'s cost under the profile is {costs[i]:.6g}: {unresolved}")
    x0 = None if x0 is None else np.asarray(x0, dtype=float)
    bounds = epsilon_bounds(g, c, prof.T, sigma).per_vertex if prof.tag == "mean_field" else np.zeros(g.n)
    values, _ = _rank_one(g, prof, c, sigma, x0, np.arange(g.n))
    gaps = costs - values
    worse = np.flatnonzero(~(gaps >= -gap_tolerance))  # a NaN gap too
    if worse.size:
        i = int(worse[0])
        how = "more than" if np.isfinite(values[i]) else "which is not finite, against"
        raise NumericError(
            f"player {i}'s best response costs {values[i]:.6g}, {how} its cost {costs[i]:.6g} under the "
            f"profile: {unresolved}"
        )
    players = [
        {
            "vertex": i,
            "cost": float(costs[i]),
            "best_response_value": float(values[i]),
            "gap": float(gaps[i]),
            "epsilon_bound": float(bounds[i]),
            "satisfied": bool(gaps[i] <= bounds[i] + gap_tolerance),
        }
        for i in range(g.n)
    ]
    return {
        "graph": g.spec(),
        "profile": prof.tag,
        "c": c,
        "sigma": sigma,
        "gap_tolerance": gap_tolerance,
        "players": players,
        "max_gap": float(gaps.max()),
        "all_satisfied": all(p["satisfied"] for p in players),
    }
