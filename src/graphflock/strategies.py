"""Cost evaluation, best responses, and approximate-equilibrium audits.

A LinearProfile assigns every player the feedback control
alpha_i(t, x) = -(row i of K(t)) . x.  Costs under a profile are computed
by deterministic moment propagation; a best response against a frozen
profile has a rank-one value matrix F = phi phi^T, so it is one backward
vector ODE for phi (derivation in best_response).  Together they quantify
how far any profile is from equilibrium, which is what the Nash and
epsilon-Nash audits report.

A profile has one form.  A modal one is diagonal over a few modes: K(t)
is k(t) I for a scalar profile (mean-field, zero), and sum_lam p_lam(t)
Pi_lam over L's eigenspaces for a spectral one (the equilibrium, the
planner on regular graphs); its rates are evaluated on the whole
half-step grid at once, and its costs come from a few ODEs per mode.  A
dense profile (custom, the planner elsewhere) gives K(t) as a matrix,
evaluated one RK4 step at a time.  A best response's phi lies in a
basis B (_basis) picked from the form, where its ODE sees the player only
through a column (_players), so _rank_one solves a whole audit at once:
one column for a scalar profile, or a spectral one on a transitive graph,
else one per player.  Every solver steps with flow.rk4_step.
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

#: Abort threshold on a best response's |phi|^2 = ||F||_2 >= max |F_rs|;
#: this game's Riccati is globally solvable, so exceeding it means a bug or
#: a pathological profile.
RICCATI_BLOWUP_CAP = 1e8


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
    player i: e_i - (neighbor average), or e_i alone for isolated i."""
    out = np.eye(g.n)
    rows = g.degrees > 0
    out[rows] -= g.adjacency[rows] / g.degrees[rows, None]
    return out


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
    rates, one per mode (an eigenspace's at its first eigenvalue), from
    one call; a dense K, evaluated on demand and kept until the next."""
    times = np.linspace(0.0, prof.T, 2 * prof.steps + 1)
    if prof.matrix_fn is not None:
        return functools.lru_cache(maxsize=1)(lambda j: prof.matrix_fn(float(times[j])))
    rates = prof.rates(times)
    return (rates[:, None] if prof.eigen is None else rates[:, prof.eigen.eigenspaces()]).__getitem__


def _mode_weights(g: Graph, prof: LinearProfile, x0: np.ndarray | None) -> tuple:
    """e_i^T Pi e_i, l_i^T Pi l_i, e_i^T Pi x0 and l_i^T Pi x0 per player i
    (row) and mode Pi (column; Pi = I for a scalar profile), the last two
    None for x0 = None; Pi_lam l_i = -lam Pi_lam e_i.  On a transitive
    graph e_i^T Pi_lam e_i is multiplicity / n for every i, as the graph's
    automorphisms commute with Pi_lam, so eigenvectors are read only for x0."""
    if prof.eigen is None:
        ex, lx = (None, None) if x0 is None else (x0[:, None], (alignment_functionals(g) @ x0)[:, None])
        return np.ones((g.n, 1)), 1.0 + _inverse_degrees(g.degrees)[:, None], ex, lx
    starts = prof.eigen.eigenspaces()
    lam = prof.eigen.eigenvalues[starts]
    if g.transitivity.is_transitive():
        ee = np.broadcast_to(np.diff(starts, append=g.n) / g.n, (g.n, starts.size))
    else:
        ee = np.add.reduceat(prof.eigen.eigenvectors**2, starts, axis=1)
    if x0 is None:
        return ee, ee * lam**2, None, None
    v = prof.eigen.eigenvectors
    ex = np.add.reduceat(v * (x0 @ v), starts, axis=1)
    return ee, ee * lam**2, ex, -lam * ex


def _modal_costs(g: Graph, prof: LinearProfile, sigma: float, c: float, x0: np.ndarray | None) -> np.ndarray:
    """profile_costs for K(t) = sum_k p_k(t) Pi_k: S = sum_k s_k Pi_k and
    m = sum_k phi_k Pi_k x0, with s_k' = -2 p_k s_k + sigma^2, s_k(0) = 0,
    phi_k' = -p_k phi_k, phi_k(0) = 1.  Player i's running cost accrues
    (1/2) sum_k p_k^2 s_k e_i^T Pi_k e_i + (1/2) (sum_k p_k phi_k e_i^T Pi_k x0)^2,
    so one propagation carries int p_k^2 s_k / 2 per mode and, with x0,
    R_kl = int p_k phi_k p_l phi_l / 2; the terminal penalty is
    (c/2) (sum_k s_k l_i^T Pi_k l_i + (sum_k phi_k l_i^T Pi_k x0)^2)."""
    h = prof.T / prof.steps
    sig2 = sigma**2
    stage = _stages(prof)
    modes = stage(0).size

    def derivs(y, p):
        out = np.empty_like(y)
        out[0] = -2.0 * p * y[0] + sig2
        out[1] = -p * y[1]
        out[2] = 0.5 * p * p * y[0]
        if x0 is not None:
            out[3:] = 0.5 * np.outer(p * y[1], p * y[1])
        return out

    y = np.zeros((3 if x0 is None else 3 + modes, modes))  # s, phi, the running cost of s, then R
    y[1] = 1.0
    for j in range(prof.steps):
        y = rk4_step(derivs, y, h, (stage(2 * j), stage(2 * j + 1), stage(2 * j + 2)))
    s, phi, run_s = y[:3]
    ee, ll, ex, lx = _mode_weights(g, prof, x0)
    costs = ee @ run_s + 0.5 * c * (ll @ s)
    if x0 is not None:
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
    control is -(e_i^T F(t)) x.  F = phi phi^T solves it exactly when

        phi' = N phi + (1/2) (e_i^T phi)^2 phi,   phi(T) = sqrt(c) l,

    so by uniqueness F stays rank one.  The returned value is
    x0^T F(0) x0 / 2 + h(0) = (x0 . phi(0))^2 / 2 + (sigma^2/2) int |phi|^2,
    and the feedback row is (e_i^T phi) phi^T.  _rank_one solves for phi
    in the basis _basis picks.
    """
    _check_profile(g, prof)
    if not 0 <= i < g.n:
        raise ParameterError(f"invalid player index {i}")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (g.n,):
            raise ParameterError(f"x0 must have length {g.n}")
    (value,), path = _rank_one(g, prof, c, sigma, x0, [i], trace=True)
    basis, gamma = _basis(g, prof, i), path[:, :, 0]
    return BestResponse(float(value), prof.grid.copy(), (gamma @ basis[i])[:, None] * (gamma @ basis.T))


def _basis(g: Graph, prof: LinearProfile, i: int) -> np.ndarray:
    """Player i's basis B for phi = B gamma, whose columns are orthogonal:
    I for a dense K, [e_i, l_i - e_i] for K = k I (l_i - e_i is 0 at i),
    and [Pi_lam e_i] for K = sum_lam p_lam Pi_lam.  K^T B = B Kt^T for
    Kt = _stages(prof)(j), and e_i and l_i lie in B's span, so phi does."""
    if prof.matrix_fn is not None:
        return np.eye(g.n)
    if prof.eigen is None:
        return np.column_stack((np.eye(1, g.n, i)[0], -g.adjacency[i] * _inverse_degrees(g.degrees[i])))
    v = prof.eigen.eigenvectors
    return np.add.reduceat(v * v[i], prof.eigen.eigenspaces(), axis=1)


def _players(g: Graph, prof: LinearProfile, x0: np.ndarray | None) -> tuple:
    """The stage; the distinct columns stacking w = B^T e_i, u and a
    (e_i = B u, l_i = B a) and which one is player i's; and the diagonal of
    B^T B and B^T x0 (None for x0 = None) as row i, for B = _basis(g, prof, i).
    Dense: w = u = e_i, a = l_i, B^T B = I.  Scalar: one column,
    w = u = (1, 0), a = (1, 1), B^T B = diag(1, 1/deg i).  Spectral:
    w = diag(B^T B) = (e_i^T Pi_lam e_i), u = 1, a = -lam; one column on a
    transitive graph (_mode_weights)."""
    n, stage = g.n, _stages(prof)
    if prof.matrix_fn is not None:
        eye = np.eye(n)
        coords = None if x0 is None else np.broadcast_to(x0, (n, n))
        return stage, np.vstack((eye, eye, alignment_functionals(g).T)), np.arange(n), np.ones((n, n)), coords
    ee, _, ex, lx = _mode_weights(g, prof, x0)
    if prof.eigen is None:
        grams = np.column_stack((ee, _inverse_degrees(g.degrees)))
        coords = None if x0 is None else np.hstack((ex, lx - ex))
        return stage, np.array([[1.0], [0.0], [1.0], [0.0], [1.0], [1.0]]), np.zeros(n, int), grams, coords
    which = np.zeros(n, int) if g.transitivity.is_transitive() else np.arange(n)
    w = ee[: which[-1] + 1].T  # the distinct rows: one on a transitive graph
    lam = prof.eigen.eigenvalues[prof.eigen.eigenspaces()]
    return stage, np.vstack((w, np.ones(w.shape), np.repeat(-lam[:, None], w.shape[1], axis=1))), which, ee, ex


def _rank_one(
    g: Graph, prof: LinearProfile, c: float, sigma: float, x0: np.ndarray | None, players, trace: bool = False
) -> tuple:
    """Best-response values of players (indices) from one solve for every
    phi = B gamma, in which players with the same column (_players) share one.

    With W, U and A the distinct columns' w, u and a, s_j = w_j^T gamma_j
    (that is, e_i^T phi) and K^T B = B Kt^T (Kt = stage(j) at the j-th
    half-step time, a vector when diagonal), the columns of Gamma solve

        Gamma' = Kt^T (Gamma - U diag s) + (1/2) Gamma diag(s^2),   Gamma(T) = sqrt(c) A

    by backward RK4 on the profile grid, one evaluation of Kt per stage
    for all columns.  Q' = -Gamma * Gamma, Q(T) = 0, alongside gives
    Q(0) = int_0^T gamma^2 entrywise, and player i's value is
    (B^T x0 . gamma(0))^2 / 2 + (sigma^2 / 2) sum_k (B^T B)_kk Q_k.  The
    solve stops once a column's |phi|^2 = sum_k (B^T B)_kk gamma_k^2, with
    the largest B^T B of its players, is above RICCATI_BLOWUP_CAP or not
    finite; |phi|^2 = ||F||_2 >= max |F_rs|.

    Returns the values and, with trace, Gamma at every grid time (row j at
    grid[j]), else None.
    """
    stage, columns, which, grams, coords = _players(g, prof, x0)
    solved, col = np.unique(which[players], return_inverse=True)
    columns, grams = columns[:, solved], grams[players]
    guard = np.stack([grams[col == k].max(axis=0) for k in range(solved.size)], axis=1)
    w, u, a = np.split(columns, 3)
    dt = prof.T / prof.steps
    y = np.stack((math.sqrt(c) * a, np.zeros(a.shape)))  # Gamma, Q
    path = np.empty((prof.steps + 1,) + a.shape) if trace else None

    def rhs(y_cur, kt):
        gamma = y_cur[0]
        s = np.vecdot(w, gamma, axis=0)
        lhs = gamma - u * s
        out = np.empty_like(y_cur)
        out[0] = kt[:, None] * lhs if kt.ndim == 1 else kt.T @ lhs
        out[0] += 0.5 * (s * s) * gamma
        np.multiply(gamma, -gamma, out=out[1])
        return out

    for j in range(prof.steps, 0, -1):
        if trace:
            path[j] = y[0]
        y = rk4_step(rhs, y, -dt, (stage(2 * j), stage(2 * j - 1), stage(2 * j - 2)))
        if not np.vecdot(guard, y[0] * y[0], axis=0).max() <= RICCATI_BLOWUP_CAP:
            raise NumericError(f"best-response |phi|^2 exceeded {RICCATI_BLOWUP_CAP:g} near t = {prof.grid[j - 1]:.6g}")
    if trace:
        path[0] = y[0]
    values = 0.5 * sigma**2 * np.vecdot(grams, y[1].T[col])
    if coords is not None:
        values += 0.5 * np.vecdot(coords[players], y[0].T[col]) ** 2
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
    (an exact equilibrium should show pure discretization error).
    """
    _check_profile(g, prof)
    costs = profile_costs(g, prof, sigma, c, x0)
    x0 = None if x0 is None else np.asarray(x0, dtype=float)
    if prof.tag == "mean_field":
        bounds = epsilon_bounds(g, c, prof.T, sigma).per_vertex
    else:
        bounds = np.zeros(g.n)
    values, _ = _rank_one(g, prof, c, sigma, x0, np.arange(g.n))
    players = []
    for i in range(g.n):
        value = float(values[i])
        gap = float(costs[i] - value)
        bound = float(bounds[i])
        players.append(
            {
                "vertex": i,
                "cost": float(costs[i]),
                "best_response_value": value,
                "gap": gap,
                "epsilon_bound": bound,
                "satisfied": bool(gap <= bound + gap_tolerance),
            }
        )
    gaps = [p["gap"] for p in players]
    return {
        "graph": g.spec(),
        "profile": prof.tag,
        "c": c,
        "sigma": sigma,
        "gap_tolerance": gap_tolerance,
        "players": players,
        "max_gap": max(gaps),
        "all_satisfied": all(p["satisfied"] for p in players),
    }
