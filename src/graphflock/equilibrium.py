"""Semi-explicit Nash equilibrium objects on transitive graphs.

Everything is evaluated in the eigenbasis of the Laplacian L.  With
f = f(T - t) and f' = c*Q'(f), the equilibrium feedback matrix is

    P(t) = -f'(T-t) * L * (I - f(T-t) L)^{-1},

whose eigenvalue on the L-eigenvector with eigenvalue lam is
rho(t) = -f'(T-t)*lam / (1 - f(T-t)*lam).  The equilibrium state at time t
is Gaussian; per eigenvalue the mean coefficient is
(1 - f(T-t)*lam) / (1 - f(T)*lam) and the covariance eigenvalue is
sigma^2 * (1 - f(T-t)*lam)^2 * integral_0^t (1 - f(T-s)*lam)^{-2} ds.

Every game variance is one integral, _variance_integral: sigma^2 *
int_0^t ((1 - lam f(T-t)) / (1 - lam f(T-s)))^2 ds per eigenvalue lam,
averaged over a measure.  The integrand factors as
sigma^2 (1 - lam f(T-t))^2 J(t) with J(t) = int_{T-t}^T (1 - lam f(tau))^-2
dtau, and J takes Gauss-Legendre rules in u = sqrt(f/(cT)), the variable in
which the schedule's series gives dtau (flow module), so the integrand is
smooth and the rule needs no step count: one composite rule per curve, cut
at the curve's own times, whose cumulative sum gives J at every time.  The
planner's variance (cooperative module) has a closed form and needs none.
A finite graph is the discrete measure of its own spectrum, so
player_variance is limit_variance on the kernel's schedule, which holds
the graph's empirical measure, and game_value is limit_value there plus
the cost of the initial state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .flow import DEFAULT_ODE_STEPS, FlockingSchedule, _check_model, _clamp_time, solve_f
from .graphs import Graph, Transitivity, _vector, _vertex, graph_distances
from .spectral import EigenSystem, empirical_measure, laplacian_eigensystem


@dataclass(frozen=True)
class GaussianLaw:
    """Mean vector and symmetric PSD covariance of a Gaussian state."""

    mean: np.ndarray
    covariance: np.ndarray


@dataclass
class EquilibriumKernel:
    """Everything needed to evaluate P(t), state laws, and values."""

    graph: Graph
    eigen: EigenSystem
    schedule: FlockingSchedule
    c: float
    T: float
    sigma: float

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def degree(self) -> int:
        return int(self.graph.degrees[0])


def build_kernel(
    g: Graph, c: float, T: float, sigma: float, steps: int = DEFAULT_ODE_STEPS
) -> EquilibriumKernel:
    """Assemble the equilibrium kernel for a regular graph without isolated
    vertices.

    The closed-form equilibrium is only guaranteed on transitive graphs; a
    regular graph of unknown transitivity proceeds with a warning, and the
    Riccati residual operation is the arbiter of whether the formula
    actually solves the Nash system there.
    """
    _check_model(c=c, T=T, sigma=sigma)
    if not g.is_regular:
        raise DomainError("equilibrium kernel needs a regular graph")
    if g.min_degree < 1:
        raise DomainError("equilibrium kernel needs a graph without isolated vertices")
    if not g.transitivity.is_transitive():
        warnings.warn(
            "graph transitivity is not established; equilibrium formulas are "
            "only guaranteed for transitive graphs",
            RuntimeWarning,
            stacklevel=2,
        )
    es = laplacian_eigensystem(g)
    return EquilibriumKernel(
        graph=g,
        eigen=es,
        schedule=solve_f(empirical_measure(g, es=es), c, T, steps),
        c=float(c),
        T=float(T),
        sigma=float(sigma),
    )


#: Gauss-Legendre nodes of each piece of a game variance's composite rule.
VARIANCE_NODES = 16

#: Integrand values evaluated at once by _variance_integral (64 KiB of floats).
VARIANCE_BLOCK = 8192


def _variance_integral(lam, schedule, sigma, t, weights=None):
    """sigma^2 * int_0^t ((1 - lam f(T-t)) / (1 - lam f(T-s)))^2 ds for each
    eigenvalue lam, f the schedule; averaged with the weights when given, at
    one time t or at each entry of an array of times (a float, a node vector
    or an array back, like t).

    With x = -lam the integrand factors as sigma^2 (1 + f(T-t) x)^2 J_x(t),
    with J_x(t) = int_{T-t}^T (1 + f(tau) x)^-2 dtau.  One composite rule
    serves every time: the schedule's curve_rule cuts [T - max t, T] at each
    T - t and grades it toward the integrand's bend, each piece with
    VARIANCE_NODES nodes, and J at each time is one cumulative sum of the
    pieces' sums from T down.  The integrand is evaluated VARIANCE_BLOCK
    values (or one piece's) at a time, and each time's row is formed and
    averaged in the block where its J is complete, so memory is
    O(nodes x len(lam)) whatever the number of times.
    """
    T, x = schedule.T, -lam
    times, inverse = np.unique(_clamp_time(t, T), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge c overflows to inf or nan, which callers check
        a_t = schedule.value(T - times)
        f, w, piece = schedule.curve_rule(a_t, VARIANCE_NODES)
        block = max(1, VARIANCE_BLOCK // (VARIANCE_NODES * x.size))
        out = np.zeros(times.shape + (x.shape if weights is None else ()))  # J = 0 at t = 0
        j = np.zeros((1, x.size))
        for lo in range(0, f.shape[0], block):
            g = f[lo : lo + block, :, None] * x
            g += 1.0
            np.divide(1.0, g, out=g)
            g *= g
            j = np.add.accumulate(np.concatenate((j[-1:], (w[lo : lo + block, None, :] @ g)[:, 0])))
            k = slice(*np.searchsorted(piece, [lo + 1, lo + block + 1]))  # the times whose J is in j
            rows = (1.0 + np.outer(a_t[k], x)) ** 2 * j[piece[k] - lo]  # j[i] is J at the end of piece lo + i
            out[k] = rows if weights is None else rows @ weights
    out = sigma**2 * out[inverse.reshape(np.shape(t))]
    return float(out) if out.ndim == 0 else out


def p_eigenvalues(k: EquilibriumKernel, t) -> np.ndarray:
    """Eigenvalues of P(t) paired with k.eigen's columns, from one evaluation
    of f(T - t); a row per time of an array t.  rhs's (times x n)
    temporaries are freed before the quotient's table is made, in place,
    so a table of many times peaks at two (times x n) arrays."""
    lam = k.eigen.eigenvalues
    f = k.schedule.value(k.T - _clamp_time(t, k.T))
    slope = -k.schedule.rhs(f)
    out = np.multiply.outer(f, lam)
    np.subtract(1.0, out, out=out)
    return np.divide(np.multiply.outer(slope, lam), out, out=out)


def p_matrix(k: EquilibriumKernel, t: float) -> np.ndarray:
    """Dense equilibrium feedback matrix P(t), assembled in the eigenbasis."""
    p = k.eigen.reconstruct(p_eigenvalues(k, t))
    return 0.5 * (p + p.T)


def equilibrium_control(k: EquilibriumKernel, i: int, t: float, x: np.ndarray) -> float:
    """Player i's equilibrium control -(row i of P(t)) . x."""
    x, i = _vector(k.graph, x), _vertex(k.n, i)
    rho = p_eigenvalues(k, t)
    v = k.eigen.eigenvectors
    return float(-(v[i] * rho) @ (v.T @ x))


def state_law(k: EquilibriumKernel, t: float, x0: np.ndarray | None = None) -> GaussianLaw:
    """Gaussian law of the equilibrium state at time t from initial state x0.

    Mean: (I - f(T-t)L)(I - f(T)L)^{-1} x0, f(T) the solve's f_values[-1].
    The population average of the mean equals that of x0 (the all-ones
    direction has eigenvalue 0).  The covariance's eigenvalues are
    _variance_integral's.
    """
    t = _clamp_time(t, k.T)
    v = k.eigen.eigenvectors
    if x0 is None:
        mean = np.zeros(k.n)
    else:
        x0 = _vector(k.graph, x0)
        lam = k.eigen.eigenvalues
        coef = (1.0 - k.schedule.value(k.T - t) * lam) / (1.0 - k.schedule.f_values[-1] * lam)
        mean = (v * coef) @ (v.T @ x0)
    cov = k.eigen.reconstruct(_variance_integral(k.eigen.eigenvalues, k.schedule, k.sigma, t))
    return GaussianLaw(mean=mean, covariance=0.5 * (cov + cov.T))


def player_variance(k: EquilibriumKernel, t):
    """Variance of one player's state at time t (zero initial states): a
    float for one t, an array for an array of times.

    On a transitive graph all players share this value; it is the average
    of the covariance eigenvalues, limit_variance on the kernel's schedule.
    """
    return limit_variance(k.schedule, k.sigma, t)


def game_value(k: EquilibriumKernel, x0: np.ndarray | None = None) -> float:
    """Average equilibrium cost over players: limit_value on the kernel's
    schedule, whose measure is the graph's spectrum, plus the cost of the
    initial state (which alone evaluates f, once, for P(0)),

        |P(0) x0|^2 / (2 Tr P(0))  -  (sigma^2/2) log( integral of (-lam)/(1 - lam f(T)) dmu(lam) ).
    """
    value = limit_value(k.schedule, k.sigma)
    if x0 is not None:
        x0 = _vector(k.graph, x0)
        rho0 = p_eigenvalues(k, 0.0)
        v = k.eigen.eigenvectors
        px0 = (v * rho0) @ (v.T @ x0)
        value += float(px0 @ px0) / (2.0 * float(rho0.sum()))
    return value


def limit_variance(schedule: FlockingSchedule, sigma: float, t):
    """Large-population variance at time t on the schedule's measure mu:

        sigma^2 * int_0^t int ((1 - lam f(T-t)) / (1 - lam f(T-s)))^2 dmu ds.

    t is one time (a float back) or an array of times (an array back, the
    whole curve from one composite rule of _variance_integral, with
    VARIANCE_NODES Gauss nodes in u per piece).
    """
    _check_model(sigma=sigma)
    mu = schedule.measure
    return _variance_integral(mu.nodes, schedule, sigma, t, mu.weights)


def limit_value(schedule: FlockingSchedule, sigma: float) -> float:
    """Large-population limit of the average equilibrium value on the
    schedule's measure mu, f(T) the solve's f_values[-1]:

        -(sigma^2/2) log( integral of (-lam)/(1 - lam f(T)) dmu(lam) ).

    mu has mean -1, so the integral is 1 - y, y = f(T) * integral of
    lam^2/(1 - lam f(T)) dmu: log1p(-y) keeps small c*T accurate, and
    where y > 1/2 the integral as it stands keeps large c*T accurate.
    """
    _check_model(sigma=sigma)
    mu, f_T = schedule.measure, schedule.f_values[-1]
    y = f_T * mu.integrate(lambda lam: lam * lam / (1.0 - lam * f_T))
    if y <= 0.5:
        return -0.5 * sigma**2 * math.log1p(-y)
    return -0.5 * sigma**2 * math.log(mu.integrate(lambda lam: -lam / (1.0 - lam * f_T)))


def _f_matrix(k: EquilibriumKernel, i: int, rho: np.ndarray) -> np.ndarray:
    """Player i's quadratic-value matrix P e_i e_i^T P / (Tr(P)/n), for P's eigenvalues rho."""
    p = k.eigen.reconstruct(rho)
    tau = rho.sum() / k.n
    return np.outer(p[:, i], p[i, :]) / tau


def riccati_residual(k: EquilibriumKernel, i: int, t: float) -> float:
    """Max-norm residual of the coupled Riccati system at an interior time.

    The per-player matrices F^j = P e_j e_j^T P / (Tr(P)/n) must satisfy

        dF^i/dt - (sum_j F^j e_j e_j^T) F^i - F^i (sum_j e_j e_j^T F^j)
                + F^i e_i e_i^T F^i = 0.

    dF^i/dt is taken by a five-point central difference on the schedule
    grid (t snaps to the nearest interior node), so the residual of an
    exact solution is differencing noise.
    """
    if k.graph.transitivity is Transitivity.NOT_TRANSITIVE:
        raise DomainError("Riccati residual is defined via the transitive construction")
    i = _vertex(k.n, i)
    t = _clamp_time(t, k.T)
    h = k.T / k.schedule.steps
    j = int(round(t / h))
    j = min(max(j, 2), k.schedule.steps - 2)

    rhos = p_eigenvalues(k, k.schedule.grid[j - 2 : j + 3])  # one schedule evaluation for the stencil
    stencil = [_f_matrix(k, i, rho) for rho in rhos]
    f_dot = (stencil[0] - 8.0 * stencil[1] + 8.0 * stencil[3] - stencil[4]) / (12.0 * h)

    p, f_i = k.eigen.reconstruct(rhos[2]), stencil[2]
    tau = rhos[2].sum() / k.n
    p_hat = p * (np.diag(p) / tau)[None, :]  # sum_j F^j e_j e_j^T
    own = np.outer(f_i[:, i], f_i[i, :])
    residual = f_dot - p_hat @ f_i - f_i @ p_hat.T + own
    return float(np.abs(residual).max())


def riccati_terminal_residual(k: EquilibriumKernel, i: int) -> float:
    """Max-norm gap between F^i(T) and its boundary value c L e_i e_i^T L."""
    i = _vertex(k.n, i)
    f_T = _f_matrix(k, i, p_eigenvalues(k, k.T))
    laplacian = k.eigen.reconstruct()
    boundary = k.c * np.outer(laplacian[:, i], laplacian[i, :])
    return float(np.abs(f_T - boundary).max())


def covariance_bound(k: EquilibriumKernel, u: int, v: int, t: float) -> float:
    """Correlation-decay bound with gamma = cT/(1+cT):

        2 sigma^2 t gamma^d (1 + d(1-gamma)) / (delta (1-gamma)^2),

    where d is the graph distance between u and v (bound 0 if infinite).
    """
    t = _clamp_time(t, k.T)
    dist = graph_distances(k.graph, u)[_vertex(k.n, v)]
    if math.isinf(dist):
        return 0.0
    gamma = k.c * k.T / (1.0 + k.c * k.T)
    d = float(dist)
    return (
        2.0
        * k.sigma**2
        * t
        * gamma**d
        * (1.0 + d * (1.0 - gamma))
        / (k.degree * (1.0 - gamma) ** 2)
    )
