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
evaluated one RK4 step at a time.  A best response's psi lies in a basis
B (_basis) picked from the form, where its ODE and costs see a player
only through weights shared by a class.  One table per call (_players),
of those weights and the rates, feeds both the costs and the best
responses, and _rank_one solves an audit at once: one column for a
scalar profile, or a spectral one on a transitive graph, else one per
player.  Every solver is classical RK4 on the profile grid.  On a modal
profile each stage is linear in the state, with coefficients from the
rate table alone, so RK4's maps for a block of steps are built in a few
array operations (_rk4_maps) and the quadratures become sums over the
grid; a dense profile calls rk4_step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError
from .flow import DEFAULT_ODE_STEPS, _check_model
from .graphs import Graph, _vector, _vertex
from .equilibrium import EquilibriumKernel, p_eigenvalues
from .spectral import EigenSystem


@dataclass
class LinearProfile:
    """Time-dependent linear feedback profile on a uniform grid of [0, T].

    Exactly one of rates and matrix_fn is set.  rates(t) is k for a scalar
    profile, K(t) = k I, or with eigen (L's eigensystem) one rate per
    eigenvalue, K(t) = V diag(rates(t)) V^T; an array of times gets a
    row per time.  matrix_fn(t) is a dense K(t).  Any t in [0, T] works;
    the grid of steps + 1 equal times fixes the discretization of the cost
    and Riccati solvers.
    """

    n: int
    T: float
    steps: int
    tag: str
    rates: Callable | None = None
    eigen: EigenSystem | None = None
    matrix_fn: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        _check_model(T=self.T)
        if self.steps < 1:
            raise ParameterError(f"profile needs at least one step, got {self.steps}")
        if (self.rates is None) == (self.matrix_fn is None):
            raise ParameterError("a profile sets exactly one of rates and matrix_fn")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def at(self, t: float) -> np.ndarray:
        """The dense n x n feedback matrix K(t), whatever the form."""
        if self.matrix_fn is not None:
            return self.matrix_fn(float(t))
        rates = self.rates(float(t))
        return rates * np.eye(self.n) if self.eigen is None else self.eigen.reconstruct(rates)


def mf_profile(g: Graph, c: float, T: float, steps: int = DEFAULT_ODE_STEPS) -> LinearProfile:
    """Decentralized mean-field profile: every player applies
    -c x_i / (1 + c(T - t)), independent of the graph."""
    _check_model(c=c)
    return LinearProfile(g.n, float(T), steps, "mean_field", lambda t: c / (1.0 + c * (T - t)))


def equilibrium_profile(k: EquilibriumKernel) -> LinearProfile:
    """Profile whose rows are the equilibrium feedback P(t), in spectral
    form: the kernel's eigensystem and P(t)'s eigenvalues p_eigenvalues(k, t)."""
    return LinearProfile(k.n, k.T, k.schedule.steps, "equilibrium", lambda t: p_eigenvalues(k, t), k.eigen)


def zero_profile(g: Graph, T: float, steps: int = DEFAULT_ODE_STEPS) -> LinearProfile:
    """All players apply the zero control (states are Brownian motions)."""
    return LinearProfile(g.n, float(T), steps, "zero", lambda t: 0.0 * t)


def custom_profile(
    g: Graph, T: float, matrix_fn: Callable[[float], np.ndarray], steps: int = DEFAULT_ODE_STEPS
) -> LinearProfile:
    return LinearProfile(n=g.n, T=float(T), steps=steps, tag="custom", matrix_fn=matrix_fn)


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


def _checked(g: Graph, prof: LinearProfile, x0: np.ndarray | None, i: int | None = None, **params) -> np.ndarray | None:
    """The entry points' argument check: the model parameters passed by
    name (flow._check_model), the profile's size against the graph's, player
    i's index where there is one, and x0's shape.  Returns x0 as floats
    (None stays None)."""
    _check_model(**params)
    if prof.n != g.n:
        raise ParameterError(f"profile is for {prof.n} players, graph has {g.n}")
    if i is not None:
        _vertex(g.n, i)
    return None if x0 is None else _vector(g, x0)


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
    on the profile grid: rk4_step on these n x n moments for a dense
    profile, precomputed RK4 maps on its modes for a scalar or spectral
    one (_modal_costs).
    """
    return _costs(prof, _players(g, prof, _checked(g, prof, x0, c=c, sigma=sigma)), sigma, c)


def _costs(prof: LinearProfile, players: tuple, sigma: float, c: float) -> np.ndarray:
    """profile_costs from _players' table: _modal_costs for a modal profile,
    else rk4_step on the n x n moments, with l_i the a block's column i and
    m(0) = x0 any row of the coordinates."""
    if prof.matrix_fn is None:
        return _modal_costs(prof, players, sigma, c)
    stage, _, _, columns, coords = players
    n, h = prof.n, prof.T / prof.steps
    eye = np.eye(n)
    sig2 = sigma**2
    # One array holds the state: S in rows 0..n-1, m in row n, costs in row n + 1.
    y = np.zeros((n + 2, n))
    if coords is not None:
        y[n] = coords[0]

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

    # Row i is l_i; the C-order copy rounds the products as on alignment_functionals(g).
    functionals = np.ascontiguousarray(np.split(columns, 3)[2].T)
    second = y[:n] + np.outer(y[n], y[n])
    return y[n + 1] + 0.5 * c * np.vecdot(functionals @ second, functionals)


#: Bytes the RK4 maps of one block of steps may take (_blocks): a block
#: holds fewer steps as the modes and solved columns grow, never fewer than one.
MAP_BLOCK_BYTES = 1 << 22

#: RK4's stage weights, and the fraction of the step at which each stage starts.
RK4_WEIGHTS, RK4_NODES = np.array([1.0, 2.0, 2.0, 1.0]), np.array([0.0, 0.5, 0.5, 1.0])


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


def _blocks(steps: int, floats_per_step: int):
    """Ranges [lo, hi) of steps whose tables, floats_per_step each, fit MAP_BLOCK_BYTES."""
    size = max(1, MAP_BLOCK_BYTES // (8 * floats_per_step))
    return ((lo, min(lo + size, steps)) for lo in range(0, steps, size))


def _stage_rows(table: np.ndarray, lo: int, hi: int) -> list:
    """The rates at RK4's four stages (start, middle twice, end) of steps
    lo .. hi - 1 from a half-step table (step j reads rows 2j, 2j + 1, 2j + 2):
    four (hi - lo, modes) views."""
    mid = table[2 * lo + 1 : 2 * hi : 2]
    return [table[2 * lo : 2 * hi : 2], mid, mid, table[2 * lo + 2 : 2 * hi + 1 : 2]]


def _rk4_maps(r: list, f: list, h: float) -> tuple[list, list]:
    """RK4's maps for a block of steps of y' = r_i y + f_i x_i, diagonal over
    the modes, with rate r_i, forcing f_i and a scalar x_i at stage i: r and
    f hold four (steps, modes) arrays or floats, as _stage_rows gives r.
    Returns d, five entries, and e, five rows: stage i's y is
    d[i] y + sum_{q<i} e[i][q] x_q (i < 4), and the step's result
    d[4] y + sum_q e[4][q] x_q, as rk4_step computes.  An entry is an array
    over (steps, modes), or a float where it is constant."""
    d, e = [1.0], [[]]
    for i in range(3):
        node_h = RK4_NODES[i + 1] * h
        slope = node_h * r[i]
        d.append(1.0 + slope * d[i])
        e.append([slope * x for x in e[i]] + [node_h * f[i]])
    slopes = [(h / 6.0) * weight * rate for weight, rate in zip(RK4_WEIGHTS, r)]
    d.append(1.0 + sum(slope * x for slope, x in zip(slopes, d)))
    e.append([(h / 6.0) * RK4_WEIGHTS[q] * f[q] + sum(slopes[i] * e[i][q] for i in range(q + 1, 4)) for q in range(4)])
    return d, e


def _modal_costs(prof: LinearProfile, players: tuple, sigma: float, c: float) -> np.ndarray:
    """profile_costs for a modal K(t) from _players' table: on the orthogonal
    columns of B = _basis(g, prof, i), S B = B diag(s) and B^T m = diag(phi) B^T x0, with
    s_k' = -2 p_k s_k + sigma^2, s_k(0) = 0, phi_k' = -p_k phi_k, phi_k(0) = 1.
    With e_i = B u, l_i = B a and G = B^T B (_players), player i's running cost accrues
    (1/2) sum_k p_k^2 s_k u_k^2 G_kk + (1/2) (sum_k p_k phi_k u_k (B^T x0)_k)^2,
    so one propagation carries int p_k^2 s_k / 2 per mode and, with x0,
    R_kl = int p_k phi_k p_l phi_l / 2; the terminal penalty is
    (c/2) (sum_k s_k a_k^2 G_kk + (sum_k phi_k a_k (B^T x0)_k)^2).

    RK4 on these linear ODEs is a precomputed map per step (_rk4_maps):
    s_{j+1} = A_j s_j + b_j and phi_{j+1} = C_j phi_j, every stage's s and
    phi a known multiple of s_j and phi_j, so the running cost is the sum of
    alpha_j s_j + beta_j over the grid and R one matrix product of the
    stages' p phi.  A block of steps at a time (_blocks) builds the maps,
    runs the recurrence for s and sums the riders."""
    h, sig2 = prof.T / prof.steps, sigma**2
    table, grams, which, columns, coords = players
    _, u, a = np.split(columns[:, :1], 3)  # the same for every player of a modal profile
    m = len(grams)
    s, phi, run = np.zeros(m), np.ones(m), np.zeros(m)
    outer = np.zeros((m, m)) if coords is not None else None  # R
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends as a refused inf or NaN
        for lo, hi in _blocks(prof.steps, 48 * m):
            p = _stage_rows(table, lo, hi)
            d, e = _rk4_maps([-2.0 * x for x in p], [sig2] * 4, h)
            shift = [sum(row) for row in e]  # s's stages and step, forced by sigma^2 at every stage
            path = np.empty((hi - lo, m))
            for j in range(hi - lo):
                path[j] = s
                s = d[4][j] * s + shift[4][j]
            weights = [(h / 12.0) * weight * x * x for weight, x in zip(RK4_WEIGHTS, p)]  # (h/6) w_i p_i^2 / 2
            alpha = sum(wt * x for wt, x in zip(weights, d))
            beta = sum(wt * x for wt, x in zip(weights, shift))
            run += np.sum(alpha * path + beta, axis=0)
            if coords is not None:
                d = _rk4_maps([-x for x in p], [0.0] * 4, h)[0]
                phis = np.cumprod(np.vstack((phi, d[4])), axis=0)
                v = np.stack([x * y for x, y in zip(p, d)], axis=1) * phis[:-1, None]  # p phi at every stage
                outer += ((h / 12.0) * RK4_WEIGHTS[:, None] * v).reshape(-1, m).T @ v.reshape(-1, m)
                phi = phis[-1]
        costs = (run @ (u * u * grams) + 0.5 * c * (s @ (a * a * grams)))[which]
        if coords is not None:
            ex, lx = coords * u.T, coords * a.T
            costs += np.einsum("ik,kl,il->i", ex, outer, ex) + 0.5 * c * (lx @ phi) ** 2
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
    return float(_costs(prof, _players(g, prof, _checked(g, prof, x0, i, c=c, sigma=sigma)), sigma, c)[i])


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
    players = _players(g, prof, _checked(g, prof, x0, i, c=c, sigma=sigma))
    value, path = _best_value(prof, players, i, c, sigma, trace=True)
    basis, gamma = _basis(g, prof, i), path[:, :, 0]
    return BestResponse(value, prof.grid, (gamma @ basis[i])[:, None] * (gamma @ basis.T))


def _best_value(prof, players, i, c, sigma, trace=False) -> tuple[float, np.ndarray | None]:
    """Player i's best-response value from _players' table (and, with
    trace, _rank_one's path); a value that is not finite raises NumericError."""
    (value,), path = _rank_one(prof, players, c, sigma, [i], trace=trace)
    if not math.isfinite(value):
        raise NumericError(f"player {i}'s best response is not finite: {prof.steps} steps do not resolve the profile")
    return float(value), path


def _basis(g: Graph, prof: LinearProfile, i: int) -> np.ndarray:
    """Player i's basis B for psi = B gamma, whose columns are orthogonal:
    I for a dense K, [e_i, l_i - e_i] for K = k I (l_i - e_i is 0 at i),
    and [Pi_lam e_i] for K = sum_lam p_lam Pi_lam.  K^T B = B Kt^T for Kt
    the j-th stage of _players' table, and e_i and l_i lie in B's span, so psi does."""
    if prof.matrix_fn is not None:
        return np.eye(g.n)
    if prof.eigen is None:
        step = np.zeros(g.n)
        step[g.neighbors(i)] = -_inverse_degrees(g.degrees[i])
        return np.column_stack((np.eye(1, g.n, i)[0], step))
    v = prof.eigen.eigenvectors
    return np.add.reduceat(v * v[i], prof.eigen.eigenspaces(), axis=1)


def _players(g: Graph, prof: LinearProfile, x0: np.ndarray | None) -> tuple:
    """The table every solver reads, built once per call: the stages, and
    for B = _basis(g, prof, i) the weights of each class of alike players:
    diag(B^T B) as a column per class (grams); each player's class (which);
    the solved columns stacking w = B^T e_i, u and a (e_i = B u, l_i = B a),
    one for all classes or one per class; B^T x0 as row i (None for
    x0 = None).  The stages are the coefficient at the j-th half-step time,
    j = 0 .. 2 steps: for a modal profile a table from one rates call, row j
    holding the rates, one per basis vector of B (k twice for a scalar
    profile, an eigenspace's at its first eigenvalue); for a dense one a
    function j -> K, evaluated on demand and kept until the next.

    Dense: a class per player, w = u = e_i, a = l_i, B^T B = I.  Scalar: a
    class per degree, one column w = u = (1, 0), a = (1, 1),
    B^T B = diag(1, 1/deg i).  Spectral: w = diag(B^T B) = (e_i^T Pi_lam e_i),
    u = 1, a = -lam; a class per player, or one on a transitive graph, where
    the graph's automorphisms commute with Pi_lam, so
    e_i^T Pi_lam e_i = multiplicity / n and eigenvectors are read only for x0."""
    n, times = g.n, np.linspace(0.0, prof.T, 2 * prof.steps + 1)
    if prof.matrix_fn is not None:
        stage = functools.lru_cache(maxsize=1)(lambda j: prof.matrix_fn(float(times[j])))
        eye = np.eye(n)
        coords = None if x0 is None else np.broadcast_to(x0, (n, n))
        return stage, np.ones((n, n)), np.arange(n), np.vstack((eye, eye, alignment_functionals(g).T)), coords
    if prof.eigen is None:
        rates = prof.rates(times)
        degrees, which = np.unique(g.degrees, return_inverse=True)
        grams = np.vstack((np.ones(degrees.size), _inverse_degrees(degrees)))
        coords = None if x0 is None else np.column_stack((x0, _align(g, x0) - x0))
        columns = np.array([[1.0], [0.0], [1.0], [0.0], [1.0], [1.0]])
        return np.column_stack((rates, rates)), grams, which, columns, coords
    starts = prof.eigen.eigenspaces()
    table = prof.rates(times)[:, starts]
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
    return table, grams, which, columns, coords


def _rank_one(prof: LinearProfile, players: tuple, c: float, sigma: float, indices, trace: bool = False) -> tuple:
    """Best-response values of the players at indices from one linear solve
    for every psi = B gamma, in which players of one class share one; players
    is _players' table.

    With W, U and A the solved columns' w, u and a, s_j = w_j^T gamma_j
    (that is, e_i^T psi) and K^T B = B Kt^T (Kt = stage(j) at the j-th
    half-step time, a vector when diagonal), Gamma's columns and z solve

        Gamma' = Kt^T (Gamma - U diag s),   Gamma(T) = sqrt(c) A,   z' = -s^2,   z(T) = 1

    by backward RK4 on the profile grid: precomputed maps for a modal
    profile (_modal_solve), rk4_step with one evaluation of Kt per stage
    for all columns for a dense one (_dense_solve).  Q' = -Gamma * Gamma / z,
    Q(T) = 0, alongside gives Q(0) = int_0^T gamma^2 / z entrywise, and
    player i's value is (B^T x0 . gamma(0))^2 / (2 z(0)) + (sigma^2 / 2)
    sum_k (B^T B)_kk Q_k.  z grows by a factor of about 1 + dt phi_i^2 per
    step; from the first step in which a column's z more than doubles, the
    column is unresolved (dt > 1 / phi_i^2) and NaN.

    Returns the values and, with trace, Gamma / sqrt(z) at every grid
    time (row j at grid[j]), else None.
    """
    stage, grams, which, columns, coords = players
    solved, cls = np.unique(which[indices], return_inverse=True)
    grams = grams[:, solved]
    w, u, a = np.split(columns[:, solved] if columns.shape[1] > 1 else columns, 3)
    solve = _modal_solve if prof.matrix_fn is None else _dense_solve
    # Columns are independent: a NaN set in one (an unresolved step), or an overflow, stays there.
    with np.errstate(over="ignore", invalid="ignore"):
        gamma, q, z, path = solve(stage, w, u, math.sqrt(c) * a, prof.T / prof.steps, prof.steps, trace)
        values = (0.5 * sigma**2 * np.vecdot(grams, q, axis=0))[cls]
        if coords is not None:
            ends = np.broadcast_to(gamma / np.sqrt(z), grams.shape).T[cls]
            values += 0.5 * np.vecdot(coords[indices], ends) ** 2
    return values, path


def _dense_solve(stage, w, u, gamma, dt, steps, trace):
    """_rank_one's Gamma(0), Q(0), z(0) and trace path for a dense Kt: steps
    rk4_step calls back from Gamma(T) = gamma with step dt."""
    m = len(gamma)
    y = np.vstack((gamma, np.zeros(gamma.shape), np.ones(gamma.shape[1])))  # Gamma, Q, z
    path = np.repeat(y[None], steps + 1, axis=0) if trace else None

    def rhs(y_cur, kt):
        gamma = y_cur[:m]
        s = np.vecdot(w, gamma, axis=0)
        return np.vstack((kt.T @ (gamma - u * s), -gamma * gamma / y_cur[-1], -s * s))

    for j in range(steps, 0, -1):
        z = y[-1]
        y = rk4_step(rhs, y, -dt, (stage(2 * j), stage(2 * j - 1), stage(2 * j - 2)))
        y[:, y[-1] > 2.0 * z] = np.nan
        if trace:
            path[j - 1] = y
    if trace:
        path = path[:, :m] / np.sqrt(path[:, -1:])
    return y[:m], y[m:-1], y[-1], path


def _modal_solve(table, w, u, gamma, dt, steps, trace):
    """_rank_one's Gamma(0), Q(0), z(0) and trace path for a diagonal Kt,
    from the rate table, by RK4 maps (_rk4_maps) back from Gamma(T) = gamma.

    Gamma' = Kt (Gamma - u s) is diagonal but for the forcing -Kt u s, so
    stage i of a step is Y_i = D_i Gamma + sum_{q<i} E_iq s_q, the step
    Gamma <- D_4 Gamma + sum_q E_4q s_q, with D and E vectors over the modes.
    The stage scalars s_i = w^T Y_i follow from the moments (D_i w)^T Gamma
    through a 4 x 4 unit lower-triangular map, folded into one (4, modes)
    map per column and step.  The loop over steps does only that; z is then
    the ordered cumulative sum of its stage increments, and Q is summed from
    the explicit Y_i, a block of steps (_blocks) at a time.  Columns lead
    every array here: gamma is (columns, modes)."""
    cols, m = w.shape[1], len(w)
    h, u, w, gamma = -dt, u[:, 0], w.T, gamma.T  # u is the same for every player of a modal profile
    q, z = np.zeros((cols, m)), np.ones(cols)
    first = np.full(cols, steps)  # each column's first unresolved (backward) step, or steps
    path = np.empty((steps + 1, cols, m)) if trace else None  # backward: row k at grid[steps - k]
    back = table[::-1]  # backward step k reads rows 2k, 2k + 1, 2k + 2
    for lo, hi in _blocks(steps, (32 + 8 * cols) * m):
        kt = _stage_rows(back, lo, hi)
        d, e = _rk4_maps(kt, [-x * u for x in kt], h)  # forced by -Kt u s_q
        lower = np.zeros((hi - lo, cols, 4, 4))  # s = lower @ moments, as s_i = w^T Y_i
        for i in range(4):
            lower[:, :, i, i] = 1.0
            for r in range(i):
                lower[:, :, i] += (e[i][r] @ w.T)[..., None] * lower[:, :, r]
        stages = np.stack(np.broadcast_arrays(*d[:4]), axis=1)  # D_0 .. D_3: (steps, 4, modes)
        moments = (lower @ stages[:, None]) * w[:, None]  # s = moments . gamma: (steps, columns, 4, modes)
        step_d, step_e = d[4], np.stack(e[4], axis=1)
        gammas, ss = np.empty((hi - lo, cols, m)), np.empty((hi - lo, cols, 4))
        for j in range(hi - lo):
            gammas[j] = gamma
            s = ss[j] = np.vecdot(moments[j], gamma[:, None])
            gamma = step_d[j] * gamma + s @ step_e[j]
        squares = ss * ss
        zs = np.cumsum(np.vstack((z[None], (-h / 6.0) * (squares @ RK4_WEIGHTS))), axis=0)
        doubled = zs[1:] > 2.0 * zs[:-1]
        first = np.where((first == steps) & doubled.any(axis=0), lo + doubled.argmax(axis=0), first)
        before = np.concatenate((np.zeros((hi - lo, cols, 1)), squares[..., :3]), axis=2)  # s^2 one stage back
        stage_z = zs[:-1, :, None] - h * RK4_NODES * before
        y = gammas
        for i in range(4):  # Y_i by RK4's own stages, from each step's gamma and s
            q -= (h / 6.0) * RK4_WEIGHTS[i] * np.sum(y * y / stage_z[..., i, None], axis=0)
            if i < 3:
                y = gammas + (RK4_NODES[i + 1] * h) * kt[i][:, None] * (y - ss[..., i, None] * u)
        if trace:
            path[lo:hi] = gammas / np.sqrt(zs[:-1, :, None])
        z = zs[-1]
    unresolved = first < steps
    gamma[unresolved], q[unresolved], z[unresolved] = np.nan, np.nan, np.nan
    if trace:
        path[steps] = gamma / np.sqrt(z[:, None])
        for col in np.flatnonzero(unresolved):
            path[first[col] + 1 :, col] = np.nan
        path = path[::-1].transpose(0, 2, 1)
    return gamma.T, q.T, z, path


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
    equilibrium.  Solves only the value, not best_response's feedback path.
    """
    players = _players(g, prof, _checked(g, prof, x0, i, c=c, sigma=sigma))
    return float(_costs(prof, players, sigma, c)[i]) - _best_value(prof, players, i, c, sigma)[0]


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
    _check_model(c=c, T=T, sigma=sigma)
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
    players = _players(g, prof, _checked(g, prof, x0, c=c, sigma=sigma))
    costs = _costs(prof, players, sigma, c)
    unresolved = f"{prof.steps} steps do not resolve the profile"
    bad = np.flatnonzero(~((costs >= -gap_tolerance) & (costs < np.inf)))  # a NaN cost too
    if bad.size:
        i = int(bad[0])
        raise NumericError(f"player {i}'s cost under the profile is {costs[i]:.6g}: {unresolved}")
    bounds = epsilon_bounds(g, c, prof.T, sigma).per_vertex if prof.tag == "mean_field" else np.zeros(g.n)
    values, _ = _rank_one(prof, players, c, sigma, np.arange(g.n))
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
