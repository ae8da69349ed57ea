"""The flocking-rate ODE and its spectral growth function.

For a spectral measure mu, define

    Q(x)  = exp( integral of log(1 - x*lam) dmu(lam) ),   x >= 0,
    Q'(x) = Q(x) * integral of (-lam) / (1 - x*lam) dmu(lam).

The flocking schedule f solves f'(t) = c * Q'(f(t)), f(0) = 0, and feeds
every equilibrium quantity through f(T - t).  Q' is bounded in (0, 1] and
globally 4-Lipschitz, so a fixed-step RK4 integrator is accurate and
stiffness-free; off-grid values use shape-preserving (PCHIP) interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DomainError, NumericError, ParameterError
from .spectral import SpectralMeasure

#: Default RK4 step count for solve_f.
DEFAULT_ODE_STEPS = 2000

#: Minimum step count accepted by solve_f.
MIN_ODE_STEPS = 100

#: Absolute slack allowed when checking analytic bounds on Q and f.
BOUND_TOL = 1e-8

#: Convergence target for the cycle closed form's scalar root-find.
PHI_INVERSE_TOL = 1e-12


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
    """(Q(x), Q'(x)) for the rule (nodes, weights): a scalar x against one
    rule, a column of x values against one rule, or one x per row of a
    stacked (S, N) rule.  Every reduction is a row-wise dot, which on one
    row is the same BLAS dot as `@`: solve_f's RK4 loop is hot."""
    resolvent = 1.0 - x * nodes
    q = np.exp(np.vecdot(np.log(resolvent), weights))
    return q, -q * np.vecdot(nodes / resolvent, weights)


@dataclass
class FlockingSchedule:
    """Tabulated solution of f' = c*Q'(f) on a uniform grid of [0, T]."""

    c: float
    T: float
    grid: np.ndarray
    f_values: np.ndarray
    measure: SpectralMeasure
    _interp: PchipInterpolator = field(init=False, repr=False)

    def __post_init__(self):
        self._interp = PchipInterpolator(self.grid, self.f_values)

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def value(self, t):
        """f(t) for t in [0, T]; monotone cubic between grid nodes."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-9) or np.any(t > self.T + 1e-9):
            raise ParameterError(f"schedule evaluated outside [0, {self.T}]")
        out = self._interp(np.clip(t, 0.0, self.T))
        return float(out) if out.ndim == 0 else out

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
    """Solve f' = c*Q'(f), f(0) = 0, by classical RK4 with fixed step T/steps.

    The returned schedule is checked against the analytic envelope
    0 <= f(t) <= c*t, the slope monotonicity implied by concavity, and the
    Taylor lower bound c*t - (c^2 t^2/2 + c^3 t^3/6) * Var(mu); violations
    raise NumericError since they indicate quadrature or step-size failure.
    """
    (schedule,) = solve_f_sweep([(mu, c)], T, steps)
    return schedule


def solve_f_sweep(pairs, T: float, steps: int = DEFAULT_ODE_STEPS) -> list[FlockingSchedule]:
    """solve_f for every (mu, c) in pairs on one grid of [0, T], as one RK4
    loop over the stacked rules.

    Row r of the stacked (S, N) nodes and weights holds pair r's rule,
    padded with nodes 0 and weights 0, which add exactly nothing to Q.  A
    row that needs no padding (the widest rule, or any sweep of one) runs
    the same float operations as a solve of its own, bit for bit; a padded
    row's dots may group their terms differently, which moves f by a few
    ulps at most.  Each schedule carries its own measure and is checked as
    solve_f checks it.
    """
    pairs = list(pairs)
    if not pairs:
        raise ParameterError("solve_f_sweep needs at least one (measure, c) pair")
    c = np.array([float(ci) for _, ci in pairs])
    if not (np.all((0.0 < c) & (c < np.inf)) and 0.0 < T < np.inf):
        raise ParameterError(f"solve_f needs finite c > 0 and T > 0, got c={c.tolist()}, T={T}")
    if steps < MIN_ODE_STEPS:
        raise ParameterError(f"solve_f needs steps >= {MIN_ODE_STEPS}, got {steps}")
    width = max(mu.nodes.size for mu, _ in pairs)
    nodes, weights = np.zeros((len(pairs), width)), np.zeros((len(pairs), width))
    for row, (mu, _) in enumerate(pairs):
        nodes[row, : mu.nodes.size] = mu.nodes
        weights[row, : mu.weights.size] = mu.weights
    column = (slice(None), None)  # f[column][r] meets row r of the rule
    if len(pairs) == 1:  # one unstacked rule keeps f and c scalars: numpy is slow on tiny arrays
        nodes, weights, c, column = nodes[0], weights[0], c[0], ()
    h = T / steps
    grid = np.linspace(0.0, T, steps + 1)
    f_values = np.empty((steps + 1, *np.shape(c)))
    f_values[0] = f = 0.0 * c

    def slope(x, _):
        return c * _q_pair(nodes, weights, x[column])[1]

    for k in range(steps):
        f_values[k + 1] = f = rk4_step(slope, f, h)
    schedules = [
        FlockingSchedule(c=float(ci), T=float(T), grid=grid, f_values=values, measure=mu)
        for values, (mu, ci) in zip(f_values.reshape(steps + 1, -1).T.copy(), pairs)
    ]
    for schedule in schedules:
        _check_schedule(schedule)
    return schedules


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
