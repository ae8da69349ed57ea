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
integral in u: FlockingSchedule.curve_rule is its composite Gauss-Legendre
rule, for such integrals to one time or to many.  One Newton, _newton,
inverts both Psi and cycle_closed_form's Phi.  f(T) is f_values[-1].
The series' coefficients come from a DCT-I done as numpy's real FFT, so
this module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebint

from .errors import NumericError, ParameterError
from .spectral import SpectralMeasure, _leggauss

#: Default step count of solve_f's output grid.
DEFAULT_ODE_STEPS = 2000

#: Minimum step count accepted by solve_f.
MIN_ODE_STEPS = 100

#: Absolute slack allowed when checking analytic bounds on Q and f.
BOUND_TOL = 1e-8

#: Convergence target of the cycle closed form's Newton inversion.
PHI_INVERSE_TOL = 1e-12

#: G's Chebyshev coefficients below CHOP_TOL times the largest are chopped.
#: The degree starts at MIN_DEGREE and doubles; above MAX_DEGREE it fails.
CHOP_TOL, MIN_DEGREE, MAX_DEGREE = 1e-14, 16, 4096

#: Newton stops at |Psi(u) - t/T| <= NEWTON_TOL * sum |Psi's coefficients|,
#: a bound on Clenshaw's rounding; every Newton stops once its bracket holds
#: two adjacent floats, or fails after NEWTON_MAX_ITER steps.
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
    twice = s + s
    for a in coef[:0:-1]:
        b1, b2 = a + twice * b1 - b2, b1
    return coef[0] + s * b1 - b2


def _dct1(h: np.ndarray) -> np.ndarray:
    """Type-I DCT of h (unnormalized, as scipy.fft.dct(h, type=1), bit for
    bit): the real part of the FFT of h's even extension."""
    return np.fft.rfft(np.concatenate((h, h[-2:0:-1]))).real


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
        coef = _dct1(g[:-1]) / n
        coef[[0, n]] *= 0.5
        size = np.abs(coef)
        keep = np.flatnonzero(size > CHOP_TOL * size.max())[-1] + 1
        miss = abs(_clenshaw(coef[:keep].tolist(), 2.0 * probe - 1.0) - g[-1])
        if keep <= 3 * n // 4 and miss <= 2.0 * size[keep:].sum() + CHOP_TOL * size.max():
            return coef[:keep], float(size[keep:].max() / size.max()), u[-2::-1]
        n *= 2
    raise NumericError(f"the schedule's Chebyshev series needs a degree above {MAX_DEGREE} at c*T = {scale:.6g}")


def _newton(fun, slope, target, u, lo, hi, tol):
    """(u, residuals) with fun(u) = target over arrays, fun increasing: Newton
    from u, or bisection where a step leaves the bracket [lo, hi] that each
    step narrows.  An entry stops at |residual| <= tol or once its bracket
    holds two adjacent floats; NumericError after NEWTON_MAX_ITER steps."""
    for _ in range(NEWTON_MAX_ITER):
        residual = fun(u) - target
        lo, hi = np.where(residual < 0.0, u, lo), np.where(residual > 0.0, u, hi)
        active = (np.abs(residual) > tol) & (np.nextafter(lo, hi) < hi)
        if not active.any():
            return u, residual
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero slope at a converged u: step unused
            step = u - residual / slope(u)
        u = np.where(active, np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi)), u)
    raise NumericError(f"a Newton inversion did not converge in {NEWTON_MAX_ITER} steps")


def _invert(series, tau, table_tau, table_u):
    """(u, residuals) with Psi(u) = tau over an array tau, by _newton from
    the ascending table table_tau = Psi(table_u), interpolated linearly in
    u^2 (exact where Psi is a multiple of u^2), inside the bracketing table
    entries."""
    slope, integral, tol = series
    j = np.clip(np.searchsorted(table_tau, tau), 1, table_tau.size - 1)
    lo, hi = table_u[j - 1], table_u[j]
    w = np.clip((tau - table_tau[j - 1]) / (table_tau[j] - table_tau[j - 1]), 0.0, 1.0)
    u = np.sqrt(lo * lo + w * (hi * hi - lo * lo))

    def series_at(coef):
        return lambda u: _clenshaw(coef, 2.0 * u - 1.0)

    return _newton(series_at(integral), series_at(slope), tau, u, lo, hi, tol)


def _clamp_time(t, T):
    """t clipped to [0, T], a float or an array like t; NaN or a time more
    than 1e-12 outside raises ParameterError."""
    times = np.asarray(t, dtype=float)
    outside = times[~((times >= -1e-12) & (times <= T + 1e-12))]
    if outside.size:
        raise ParameterError(f"t = {outside.flat[0]} outside the horizon [0, {T}]")
    times = np.clip(times, 0.0, T)
    return float(times) if times.ndim == 0 else times


def _check_model(**params) -> None:
    """The model-parameter rule of every entry point, for the parameters
    passed by name: c and T positive and finite, sigma nonnegative and
    finite (sigma = 0 is the deterministic game).  A value that breaks it,
    NaN included, raises ParameterError; given c and T, a c*T that
    overflows raises NumericError."""
    for name, value in params.items():
        if not ((value >= 0.0 if name == "sigma" else value > 0.0) and value < math.inf):
            rule = "nonnegative" if name == "sigma" else "positive"
            raise ParameterError(f"{name} must be {rule} and finite, got {value}")
    c, T = float(params.get("c", 1.0)), float(params.get("T", 1.0))
    if c * T == math.inf:
        raise NumericError(f"c*T overflows at c={c}, T={T}")


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
        the grid.  A NaN time, or one more than 1e-12 outside [0, T], raises
        ParameterError.  Callers pass every time they need in one array."""
        T = self.T
        u = _invert(self._series, _clamp_time(t, T) / T, *self._table)[0]
        out = self.c * T * (u * u)
        return float(out) if out.ndim == 0 else out

    def curve_rule(self, f, nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f at the nodes, their dt-weights, pieces): one composite
        nodes-point Gauss-Legendre rule in u for int_tau^T h(f(t)) dt at
        every tau where the schedule takes a value of the array f, so that
        a curve of such integrals is one cumulative sum.  A row per piece,
        from T down; the integral to the tau of f[i] is the sum of the
        first pieces[i] rows.

        In u = sqrt(f/(cT)), dt = T G(u) du (module docstring), and the
        integrands (1 + f x)^-2, x in (0, 2], and G have poles at
        u = +-i (cT x)^-1/2, so they bend within about (cT)^-1/2 of u = 0.
        The pieces are cut at every tau and, toward that bend, at
        u = (cT)^-1/2 2^j, so each lies 0.7 of its length or more away from
        the poles.  The ends are taken in u, so none is inverted.  (Graded
        by 4, a 16-node rule is off by 2e-13 at cT = 1e4.)"""
        if nodes < 1:
            raise ParameterError(f"a Gauss rule needs at least 1 node, got {nodes}")
        scale = self.c * self.T
        u = np.sqrt(np.asarray(f, dtype=float).ravel() / scale)
        top = math.sqrt(self.f_values[-1] / scale)  # u at T: f_values[-1] is value(T) bit for bit
        grades = 2.0 ** np.arange(max(0, math.ceil(math.log(scale, 4)))) / math.sqrt(scale)
        grades = grades[(grades > u.min(initial=top)) & (grades < top)]
        ends, index = np.unique(np.concatenate((u, grades, [top])), return_inverse=True)
        ends = ends[::-1, None]
        hi, lo = ends[:-1], ends[1:]
        x, w = _leggauss(nodes)
        at = lo + 0.5 * (hi - lo) * (x + 1.0)  # the nodes in u, a row per piece
        dt = 0.5 * self.T * (hi - lo) * w * _clenshaw(self._series[0], 2.0 * at - 1.0)
        return scale * (at * at), dt, ends.size - 1 - index[: u.size]

    def slope(self, t):
        """f'(t) recovered exactly from the ODE as c * Q'(f(t))."""
        return self.rhs(self.value(t))

    def rhs(self, f):
        """The ODE's right-hand side c * Q'(f) at schedule values f: the
        slope where the schedule takes the value f, with no evaluation of f."""
        out = self.c * _q_pair(self.measure.nodes, self.measure.weights, np.atleast_1d(f)[:, None])[1]
        return float(out[0]) if np.ndim(f) == 0 else out


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
    _check_model(c=c, T=T)
    c, T = float(c), float(T)
    if steps < MIN_ODE_STEPS:
        raise ParameterError(f"solve_f needs steps >= {MIN_ODE_STEPS}, got {steps}")
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


def _phi(x):
    s = np.sqrt(1.0 + 2.0 * x)
    return np.log1p(s) - s + x + 0.5


def _phi_prime(x):
    s = np.sqrt(1.0 + 2.0 * x)
    return s / (1.0 + s)


def cycle_closed_form(c: float, t: float) -> float:
    """Closed-form flocking schedule for the cycle limit measure.

    Returns the inverse of Phi(x) = log(1 + sqrt(1+2x)) - sqrt(1+2x) + x + 1/2
    at log(2) + (c*t - 1)/2, by _newton in a bracket [0, hi] doubled until it
    holds the root (Phi is strictly increasing).  Newton stops at
    |Phi(x) - target| <= PHI_INVERSE_TOL, or where Phi's float spacing
    exceeds that (x near 1.6e4 at c = 1e5) once its bracket holds two
    adjacent floats.  A t that is not finite and >= 0 raises
    ParameterError, and c*t keeps _check_model's c*T rule.
    """
    if not 0.0 <= t < math.inf:  # false for NaN too
        raise ParameterError(f"cycle_closed_form needs a finite t >= 0, got {t}")
    _check_model(c=c, T=t or 1.0)  # t = 0 has no c*t to overflow
    target = float(np.log(2.0) + 0.5 * (c * t - 1.0))
    floor = _phi(0.0)
    if target <= floor:
        return 0.0
    hi = max(1.0, target - floor)
    while _phi(hi) < target:
        hi *= 2.0
    x = min(max(target - np.log(2.0) + 0.5, 0.0), hi)
    return float(_newton(_phi, _phi_prime, target, x, 0.0, hi, PHI_INVERSE_TOL)[0])
