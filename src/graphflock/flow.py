"""The flocking-rate ODE and its spectral growth function.

For a spectral measure mu, define

    Q(x)  = exp( integral of log(1 - x*lam) dmu(lam) ),   x >= 0,
    Q'(x) = Q(x) * integral of (-lam) / (1 - x*lam) dmu(lam).

The flocking schedule f solves f'(t) = c * Q'(f(t)), f(0) = 0, and feeds
every equilibrium quantity through f(T - t).  The ODE is autonomous, so f
inverts t = Phi(f)/c, Phi(f) = integral of dx/Q'(x) over [0, f].  With
x = cT u^2, Psi(u) = Phi(x)/(cT) integrates G(u) = 2u / Q'(cT u^2), which
is analytic on u in [0, 1] (Q' is in (0, 1] for x >= 0 and singular only
at x = 1/lam <= -1/2).  solve_f interpolates G at Chebyshev points, doubling
the degree until the series' tail is chopped, integrates the series and
inverts Psi(u) = t/T by safeguarded Newton (Trefethen, Approximation Theory
and Approximation Practice, 2013; Aurentz & Trefethen, "Chopping a
Chebyshev series", 2017), so f is exact to rounding at any t.  The same
series gives dt = T G(u) du, so an integral of h(f(t)) dt is a smooth
integral in u: FlockingSchedule.gauss_rule is its Gauss-Legendre rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebint
from numpy.polynomial.legendre import leggauss
from scipy.fft import dct

from .errors import DomainError, NumericError, ParameterError
from .spectral import SpectralMeasure

#: Default step count of solve_f's output grid.
DEFAULT_ODE_STEPS = 2000

#: Minimum step count accepted by solve_f.
MIN_ODE_STEPS = 100

#: Absolute slack allowed when checking analytic bounds on Q and f.
BOUND_TOL = 1e-8

#: Convergence target for the cycle closed form's scalar root-find.
PHI_INVERSE_TOL = 1e-12

#: G's Chebyshev coefficients below CHOP_TOL times the largest are chopped.
#: The degree starts at MIN_DEGREE and doubles; above MAX_DEGREE it fails.
CHOP_TOL, MIN_DEGREE, MAX_DEGREE = 1e-14, 16, 4096

#: Newton stops at |Psi(u) - t/T| <= NEWTON_TOL * sum |Psi's coefficients|,
#: a bound on Clenshaw's rounding, or once its bracket holds two adjacent
#: floats, or fails after NEWTON_MAX_ITER steps.
NEWTON_TOL, NEWTON_MAX_ITER = 8 * np.finfo(float).eps, 100


def q_eval(mu: SpectralMeasure, x: float) -> tuple[float, float]:
    """Evaluate (Q(x), Q'(x)) for x >= 0.

    Checks the analytic envelopes 1 <= Q <= 1 + x and 0 < Q' <= 1; a
    violation beyond tolerance means the measure's quadrature is broken.
    """
    if x < 0:
        raise ParameterError(f"q_eval needs x >= 0, got {x}")
    q, qp = map(float, _q_pair(mu.nodes, mu.weights, float(x)))
    if not (1.0 - BOUND_TOL <= q <= 1.0 + x + BOUND_TOL):
        raise NumericError(f"Q({x}) = {q} escapes its envelope [1, 1 + x]")
    if not (0.0 < qp <= 1.0 + BOUND_TOL):
        raise NumericError(f"Q'({x}) = {qp} escapes its envelope (0, 1]")
    return q, qp


def _q_pair(nodes, weights, x):
    """(Q(x), Q'(x)) for the rule (nodes, weights): a scalar x, or a column
    of x values.  Every reduction is a row-wise dot, so an x gets the same
    bits alone as in a column (rhs takes one slope or many)."""
    resolvent = 1.0 - x * nodes
    q = np.exp(np.vecdot(np.log(resolvent), weights))
    return q, -q * np.vecdot(nodes / resolvent, weights)


def _clenshaw(coef, s):
    """sum_k coef[k] T_k(s) for a list of floats coef, at a float or an array s."""
    b1 = b2 = 0.0
    for a in coef[:0:-1]:
        b1, b2 = a + (s + s) * b1 - b2, b1
    return coef[0] + s * b1 - b2


def _chebyshev_series(mu: SpectralMeasure, scale: float):
    """(coefficients in s = 2u - 1, chopped tail / largest, ascending points
    u) of G(u) = 2u / Q'(scale u^2) interpolated on [0, 1].  A degree is kept
    once its top quarter of coefficients is chopped, so the rest are resolved,
    and it matches G to within its interpolation error at a probe in G's bend
    near u = 0 (about scale^-1/2 wide), which a large scale puts short of
    every point."""
    probe = min(0.5, 0.25 / math.sqrt(scale))
    n = MIN_DEGREE
    while n <= MAX_DEGREE:
        u = np.append(0.5 + 0.5 * np.cos(np.pi * np.arange(n + 1) / n), probe)  # descending; u[n] = 0
        qp = _q_pair(mu.nodes, mu.weights, (scale * u * u)[:, None])[1]
        if not np.all((0.0 < qp) & (qp <= 1.0 + BOUND_TOL)):  # q_eval's envelope
            raise NumericError(f"Q' escapes its envelope (0, 1] on [0, {scale:.6g}]")
        g = 2.0 * u / qp
        coef = dct(g[:-1], type=1) / n
        coef[[0, n]] *= 0.5
        size = np.abs(coef)
        keep = np.flatnonzero(size > CHOP_TOL * size.max())[-1] + 1
        miss = abs(_clenshaw(coef[:keep].tolist(), 2.0 * probe - 1.0) - g[-1])
        if keep <= 3 * n // 4 and miss <= 2.0 * size[keep:].sum() + CHOP_TOL * size.max():
            return coef[:keep], float(size[keep:].max() / size.max()), u[-2::-1]
        n *= 2
    raise NumericError(f"the schedule's Chebyshev series needs a degree above {MAX_DEGREE} at c*T = {scale:.6g}")


#: The m-point Gauss-Legendre rule on [-1, 1], built on first use per m.
_leggauss = functools.cache(leggauss)


def _invert(series, tau, table_tau, table_u):
    """(u, residuals) with Psi(u) = tau over an array tau, by Newton from the
    ascending table table_tau = Psi(table_u), interpolated linearly in u^2
    (exact where Psi is a multiple of u^2), with a bisection fallback inside
    the bracketing table entries."""
    slope, integral, tol = series
    j = np.clip(np.searchsorted(table_tau, tau), 1, table_tau.size - 1)
    lo, hi = table_u[j - 1], table_u[j]
    w = np.clip((tau - table_tau[j - 1]) / (table_tau[j] - table_tau[j - 1]), 0.0, 1.0)
    u = np.sqrt(lo * lo + w * (hi * hi - lo * lo))
    for _ in range(NEWTON_MAX_ITER):
        residual = _clenshaw(integral, 2.0 * u - 1.0) - tau
        lo, hi = np.where(residual < 0.0, u, lo), np.where(residual > 0.0, u, hi)
        active = (np.abs(residual) > tol) & (np.nextafter(lo, hi) < hi)  # adjacent floats bracket no closer u
        if not active.any():
            return u, residual
        with np.errstate(divide="ignore", invalid="ignore"):  # G(0) = 0 at a converged u = 0: step unused
            step = u - residual / _clenshaw(slope, 2.0 * u - 1.0)
        u = np.where(active, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)), u)
    raise NumericError(f"the schedule's Newton inversion did not converge in {NEWTON_MAX_ITER} steps")


@dataclass(frozen=True)
class FlockingSchedule:
    """Solution of f' = c*Q'(f) on a uniform grid of [0, T], with the series
    that gives f exactly between the grid's nodes.  Health of the solve:
    degree of G's series, chop_tail (its largest chopped coefficient over
    its largest, <= CHOP_TOL), newton_residual (largest |Psi(u) - t/T| left
    on the grid)."""

    c: float
    T: float
    grid: np.ndarray
    f_values: np.ndarray
    measure: SpectralMeasure
    degree: int
    chop_tail: float
    newton_residual: float
    _series: tuple = field(repr=False)  # G's and Psi's coefficients as lists, Newton's tolerance
    _table: tuple = field(repr=False)  # Psi at the series' Chebyshev points u, and those u, ascending

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def value(self, t):
        """f(t) for t in [0, T], a float or an array like t, by Newton from
        the table solve_f inverted its grid from, so f(t) does not depend on
        the grid.  Callers pass every time they need in one array."""
        T = self.T
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-9) or np.any(t > T + 1e-9):
            raise ParameterError(f"schedule evaluated outside [0, {T}]")
        u = _invert(self._series, np.clip(t, 0.0, T) / T, *self._table)[0]
        out = self.c * T * (u * u)
        return float(out) if out.ndim == 0 else out

    def gauss_rule(self, start, stop, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """(f at the nodes, their dt-weights): the nodes-point Gauss-Legendre
        rule for int_start^stop h(f(t)) dt in u = sqrt(f/(cT)), where
        dt = T G(u) du (module docstring) and the integrand is smooth; a row
        per entry of start and stop, times or arrays broadcast together.

        The integrands (1 + f x)^-2, x in (0, 2], and G have poles at
        u = +-i (cT x)^-1/2, so they bend within about (cT)^-1/2 of u = 0.
        A row whose start u0 lies nearer those poles, d = hypot(u0, (cT)^-1/2),
        than its rule's mean node gap is cut at u0 + d 4^k into pieces of
        nodes points each, every piece a third of its length or more from
        the poles; the other rows then get empty pieces of zero weight."""
        if nodes < 1:
            raise ParameterError(f"a Gauss rule needs at least 1 node, got {nodes}")
        x, w = _leggauss(nodes)
        scale = self.c * self.T
        lo, hi = np.sqrt(self.value(np.broadcast_arrays(start, stop)) / scale)[..., None]
        reach = np.hypot(lo, scale**-0.5)  # from each row's start to the nearest poles
        bent = reach * nodes < hi - lo  # nearer than the row's mean node gap
        grades = math.ceil(math.log(np.where(bent, (hi - lo) / reach, 1.0).max(initial=1.0), 4))
        cuts = np.minimum(lo + np.where(bent, reach, np.inf) * 4.0 ** np.arange(grades), hi)
        ends = np.concatenate((lo, cuts, hi), axis=-1)[..., None]
        lo, hi = ends[..., :-1, :], ends[..., 1:, :]  # one row per piece, one piece unless a row is bent
        u = lo + 0.5 * (hi - lo) * (x + 1.0)
        f, dt = self.c * self.T * (u * u), 0.5 * self.T * (hi - lo) * w * _clenshaw(self._series[0], 2.0 * u - 1.0)
        return f.reshape(u.shape[:-2] + (-1,)), dt.reshape(u.shape[:-2] + (-1,))

    def slope(self, t):
        """f'(t) recovered exactly from the ODE as c * Q'(f(t))."""
        return self.rhs(self.value(t))

    def rhs(self, f):
        """The ODE's right-hand side c * Q'(f) at schedule values f: the
        slope where the schedule takes the value f, with no evaluation of f."""
        out = self.c * _q_pair(self.measure.nodes, self.measure.weights, np.atleast_1d(f)[:, None])[1]
        return float(out[0]) if np.ndim(f) == 0 else out


def rk4_step(rhs, y, h, stages=(None, None, None)):
    """One classical RK4 step of y' = rhs(y, s) from y, with step h.

    stages holds rhs's second argument at the start, middle and end of the
    step (say a profile's coefficient at t, t + h/2 and t + h); a negative
    h steps backward in time.  y is a float or an array, and a system of
    several unknowns is one array.
    """
    start, mid, end = stages
    k1 = rhs(y, start)
    k2 = rhs(y + 0.5 * h * k1, mid)
    k3 = rhs(y + 0.5 * h * k2, mid)
    k4 = rhs(y + h * k3, end)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def solve_f(
    mu: SpectralMeasure, c: float, T: float, steps: int = DEFAULT_ODE_STEPS
) -> FlockingSchedule:
    """Solve f' = c*Q'(f), f(0) = 0, on the uniform grid of [0, T] with
    steps intervals, by inverting Phi (module docstring); steps sets only
    the output grid, not the cost of the solve.

    The returned schedule is checked against the analytic envelope
    0 <= f(t) <= c*t, the slope monotonicity implied by concavity, and the
    Taylor lower bound c*t - (c^2 t^2/2 + c^3 t^3/6) * Var(mu); violations
    raise NumericError since they indicate quadrature or series failure, as
    do a degree above MAX_DEGREE and a Newton failure.
    """
    c, T = float(c), float(T)
    if not (0.0 < c < np.inf and 0.0 < T < np.inf):
        raise ParameterError(f"solve_f needs finite c > 0 and T > 0, got c={c}, T={T}")
    if steps < MIN_ODE_STEPS:
        raise ParameterError(f"solve_f needs steps >= {MIN_ODE_STEPS}, got {steps}")
    if c * T == np.inf:
        raise NumericError(f"c*T overflows at c={c}, T={T}")
    slope, chop_tail, nodes = _chebyshev_series(mu, c * T)
    integral = chebint(slope, lbnd=-1.0, scl=0.5)
    series = (slope.tolist(), integral.tolist(), NEWTON_TOL * float(np.abs(integral).sum()))
    table = _clenshaw(series[1], 2.0 * nodes - 1.0)
    table[0] = 0.0  # Psi(0) = 0 exactly, so t = 0 starts, and stays, at u = 0
    grid = np.linspace(0.0, T, steps + 1)
    u, residual = _invert(series, grid / T, table, nodes)
    health = (slope.size - 1, chop_tail, float(np.abs(residual).max()))
    schedule = FlockingSchedule(c, T, grid, c * T * (u * u), mu, *health, series, (table, nodes))
    _check_schedule(schedule)
    return schedule


def _check_schedule(s: FlockingSchedule) -> None:
    c, t, f = s.c, s.grid, s.f_values
    tol = BOUND_TOL * max(1.0, c * s.T)
    if f[0] != 0.0:
        raise NumericError("schedule must start at f(0) = 0")
    if np.any(f < -tol) or np.any(f > c * t + tol):
        raise NumericError("schedule escapes the envelope 0 <= f(t) <= c*t")
    diffs = np.diff(f)
    if np.any(diffs < -tol):
        raise NumericError("schedule is not nondecreasing")
    if np.any(np.diff(diffs) > tol):
        raise NumericError("schedule slopes are not nonincreasing (concavity lost)")
    var = s.measure.variance()
    with np.errstate(over="ignore", invalid="ignore"):  # a huge c*t makes the bound -inf or NaN: vacuous
        lower = c * t - (0.5 * (c * t) ** 2 + (c * t) ** 3 / 6.0) * var
    if np.any(f < lower - tol):
        raise NumericError("schedule undercuts its Taylor lower bound")


def _phi(x: float) -> float:
    s = np.sqrt(1.0 + 2.0 * x)
    return float(np.log1p(s) - s + x + 0.5)


def _phi_prime(x: float) -> float:
    s = np.sqrt(1.0 + 2.0 * x)
    return float(s / (1.0 + s))


def cycle_closed_form(c: float, t: float) -> float:
    """Closed-form flocking schedule for the cycle limit measure.

    Returns the inverse of Phi(x) = log(1 + sqrt(1+2x)) - sqrt(1+2x) + x + 1/2
    at log(2) + (c*t - 1)/2, computed by safeguarded Newton iteration with a
    bisection fallback; Phi is strictly increasing so the root is unique.
    """
    if c <= 0:
        raise ParameterError(f"cycle_closed_form needs c > 0, got {c}")
    if t < 0:
        raise ParameterError(f"cycle_closed_form needs t >= 0, got {t}")
    target = float(np.log(2.0) + 0.5 * (c * t - 1.0))
    floor = _phi(0.0)
    if target < floor - PHI_INVERSE_TOL:
        raise DomainError(f"target {target} lies below Phi(0) = {floor}")
    if target <= floor:
        return 0.0
    lo, hi = 0.0, max(1.0, target - floor)
    while _phi(hi) < target:
        hi *= 2.0
    x = min(max(target - np.log(2.0) + 0.5, 0.0), hi)
    for _ in range(200):
        err = _phi(x) - target
        if abs(err) <= PHI_INVERSE_TOL:
            return float(x)
        if err > 0:
            hi = x
        else:
            lo = x
        step = err / _phi_prime(x)
        x_new = x - step
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        x = x_new
    raise NumericError("Phi inverse did not converge to tolerance")
