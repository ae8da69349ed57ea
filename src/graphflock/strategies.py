"""Cost evaluation, best responses, and approximate-equilibrium audits.

A LinearProfile assigns every player the feedback control
alpha_i(t, x) = -(row i of K(t)) . x.  Costs under a profile are computed
by deterministic moment propagation; best responses against a frozen
profile reduce to a backward matrix Riccati equation (derivation in the
comments of best_response).  Together they quantify how far any profile is
from equilibrium, which is what the Nash and epsilon-Nash audits report.

Profiles come in two structures.  A scalar profile, K(t) = k(t) I (the
mean-field and zero profiles), carries its rate k.  Its state covariance
stays s(t) I, so costs come from a few scalar ODEs (_scalar_costs).
Player i's Riccati stays in span{l_i, e_i}: it is a 2x2 Riccati whose
matrix part is the same for every player and whose noise term depends on
i only through deg(i) (_scalar_riccati).  A whole audit is then one such
solve, O(steps + n) work.  Every other profile is dense: its n x n
matrices are evaluated on the half-step grid, cached on the profile, and
integrated as they stand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError
from .flow import DEFAULT_ODE_STEPS
from .graphs import Graph
from .equilibrium import EquilibriumKernel, p_matrix

#: Abort threshold for the backward Riccati solve; this game's Riccati is
#: globally solvable, so exceeding it means a bug or a pathological profile.
RICCATI_BLOWUP_CAP = 1e8


@dataclass
class LinearProfile:
    """Time-dependent linear feedback profile on a uniform grid of [0, T].

    matrix_fn evaluates the full n x n feedback map at any t in [0, T]
    (RK4 needs half-step values); the grid fixes the discretization that
    cost and best-response solvers use.  A scalar profile also sets rate,
    with K(t) = rate(t) I; the solvers then use the scalar and never build
    the dense matrices.
    """

    n: int
    T: float
    grid: np.ndarray
    tag: str
    matrix_fn: Callable[[float], np.ndarray]
    rate: Callable[[float], float] | None = None
    _stage_cache: list | None = field(default=None, repr=False)

    @property
    def steps(self) -> int:
        return self.grid.size - 1

    def at(self, t: float) -> np.ndarray:
        return self.matrix_fn(float(t))

    def _half_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.T, 2 * self.steps + 1)

    def stage_matrices(self) -> list[np.ndarray]:
        """Feedback matrices on the half-step grid (2*steps + 1 points).

        Cached on the profile: audits solve one Riccati per player against
        the same frozen profile, and re-evaluating the map dominates their
        runtime otherwise.
        """
        if self._stage_cache is None:
            self._stage_cache = [self.matrix_fn(float(t)) for t in self._half_grid()]
        return self._stage_cache

    def stage_rates(self) -> list[float]:
        """A scalar profile's rate on the half-step grid (2*steps + 1 points)."""
        return [self.rate(float(t)) for t in self._half_grid()]


def _uniform_grid(T: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ParameterError(f"profile needs at least one step, got {steps}")
    return np.linspace(0.0, T, steps + 1)


def _scalar_profile(g: Graph, T: float, steps: int, tag: str, rate: Callable[[float], float]) -> LinearProfile:
    eye = np.eye(g.n)
    return LinearProfile(
        n=g.n, T=float(T), grid=_uniform_grid(T, steps), tag=tag, matrix_fn=lambda t: rate(t) * eye, rate=rate
    )


def mf_profile(g: Graph, c: float, T: float, steps: int = DEFAULT_ODE_STEPS) -> LinearProfile:
    """Decentralized mean-field profile: every player applies
    -c x_i / (1 + c(T - t)), independent of the graph."""
    return _scalar_profile(g, T, steps, "mean_field", lambda t: c / (1.0 + c * (T - t)))


def equilibrium_profile(k: EquilibriumKernel) -> LinearProfile:
    """Profile whose rows are the equilibrium feedback P(t)."""
    return LinearProfile(
        n=k.n,
        T=k.T,
        grid=k.schedule.grid.copy(),
        tag="equilibrium",
        matrix_fn=lambda t: p_matrix(k, t),
    )


def zero_profile(g: Graph, T: float, steps: int = DEFAULT_ODE_STEPS) -> LinearProfile:
    """All players apply the zero control (states are Brownian motions)."""
    return _scalar_profile(g, T, steps, "custom", lambda t: 0.0)


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


def _alignment_row(g: Graph, i: int) -> np.ndarray:
    """Row i of alignment_functionals(g), without the other n - 1 rows."""
    row = np.zeros(g.n)
    row[i] = 1.0
    if g.degrees[i] > 0:
        row -= g.adjacency[i] / g.degrees[i]
    return row


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
    on the profile grid; a scalar profile propagates scalars instead
    (_scalar_costs).
    """
    _check_profile(g, prof)
    n = g.n
    m = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if m.shape != (n,):
        raise ParameterError(f"x0 must have length {n}")
    if prof.rate is not None:
        return _scalar_costs(g, prof, sigma, c, None if x0 is None else m)
    s_mat = np.zeros((n, n))
    costs = np.zeros(n)
    h = prof.T / prof.steps
    eye = np.eye(n)
    sig2 = sigma**2
    stages = prof.stage_matrices()

    def derivs(m_cur, s_cur, kmat):
        second = s_cur + np.outer(m_cur, m_cur)
        dm = -kmat @ m_cur
        ds = -kmat @ s_cur - s_cur @ kmat.T + sig2 * eye
        dj = 0.5 * np.einsum("ij,jk,ik->i", kmat, second, kmat)
        return dm, ds, dj

    for j in range(prof.steps):
        k_lo, k_mid, k_hi = stages[2 * j], stages[2 * j + 1], stages[2 * j + 2]
        dm1, ds1, dj1 = derivs(m, s_mat, k_lo)
        dm2, ds2, dj2 = derivs(m + 0.5 * h * dm1, s_mat + 0.5 * h * ds1, k_mid)
        dm3, ds3, dj3 = derivs(m + 0.5 * h * dm2, s_mat + 0.5 * h * ds2, k_mid)
        dm4, ds4, dj4 = derivs(m + h * dm3, s_mat + h * ds3, k_hi)
        m = m + (h / 6.0) * (dm1 + 2 * dm2 + 2 * dm3 + dm4)
        s_mat = s_mat + (h / 6.0) * (ds1 + 2 * ds2 + 2 * ds3 + ds4)
        s_mat = 0.5 * (s_mat + s_mat.T)
        costs += (h / 6.0) * (dj1 + 2 * dj2 + 2 * dj3 + dj4)

    functionals = alignment_functionals(g)
    second = s_mat + np.outer(m, m)
    costs += 0.5 * c * np.einsum("ij,jk,ik->i", functionals, second, functionals)
    return costs


def _scalar_costs(g: Graph, prof: LinearProfile, sigma: float, c: float, x0: np.ndarray | None) -> np.ndarray:
    """profile_costs for a scalar profile K(t) = k(t) I.

    Then S = s I and m = phi x0, with s' = -2ks + sigma^2, phi' = -k phi,
    s(0) = 0 and phi(0) = 1, and player i's running cost accrues
    (1/2) k^2 (s + phi^2 x0_i^2).  One scalar RK4 propagation on the same
    half-step rates serves every player; the terminal penalty is
    (c/2) (s |l_i|^2 + (l_i . m)^2).
    """
    h = prof.T / prof.steps
    sig2 = sigma**2
    rates = prof.stage_rates()
    s, phi, run_s, run_m = 0.0, 1.0, 0.0, 0.0

    def derivs(s_cur, phi_cur, k):
        half_k2 = 0.5 * k * k
        return -2.0 * k * s_cur + sig2, -k * phi_cur, half_k2 * s_cur, half_k2 * phi_cur * phi_cur

    for j in range(prof.steps):
        k_lo, k_mid, k_hi = rates[2 * j], rates[2 * j + 1], rates[2 * j + 2]
        ds1, dp1, dj1, dn1 = derivs(s, phi, k_lo)
        ds2, dp2, dj2, dn2 = derivs(s + 0.5 * h * ds1, phi + 0.5 * h * dp1, k_mid)
        ds3, dp3, dj3, dn3 = derivs(s + 0.5 * h * ds2, phi + 0.5 * h * dp2, k_mid)
        ds4, dp4, dj4, dn4 = derivs(s + h * ds3, phi + h * dp3, k_hi)
        s += (h / 6.0) * (ds1 + 2 * ds2 + 2 * ds3 + ds4)
        phi += (h / 6.0) * (dp1 + 2 * dp2 + 2 * dp3 + dp4)
        run_s += (h / 6.0) * (dj1 + 2 * dj2 + 2 * dj3 + dj4)
        run_m += (h / 6.0) * (dn1 + 2 * dn2 + 2 * dn3 + dn4)

    costs = run_s + 0.5 * c * s * (1.0 + _inverse_degrees(g.degrees))
    if x0 is not None:
        costs += run_m * x0**2 + 0.5 * c * (phi * (alignment_functionals(g) @ x0)) ** 2
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
    turns its HJB equation into the backward matrix Riccati system

        F' = F e_i e_i^T F + K^T F + F K - K^T e_i e_i^T F - F e_i e_i^T K,
        h' = -(sigma^2 / 2) Tr F,
        F(T) = c l l^T,   h(T) = 0,

    with l player i's terminal alignment functional, and the optimal
    control is -(e_i^T F(t)) x.  The right-hand side is re-symmetrized
    every step to suppress drift; the returned value is
    x0^T F(0) x0 / 2 + h(0).  Against a scalar profile the same system is
    solved in its 2x2 form (_scalar_riccati).
    """
    _check_profile(g, prof)
    if not 0 <= i < g.n:
        raise ParameterError(f"invalid player index {i}")
    n = g.n
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (n,):
            raise ParameterError(f"x0 must have length {n}")
    ell = _alignment_row(g, i)
    if prof.rate is not None:
        inv_deg = float(_inverse_degrees(g.degrees[i]))
        traj, h_tr, h_11 = _scalar_riccati(prof, c, sigma, inv_deg)
        g11, g12, g22 = traj.T
        feedback = np.outer(g11 + g12, ell)
        feedback[:, i] += g12 + g22
        value = h_tr + h_11 * inv_deg
        if x0 is not None:
            value += _quadratic(traj[0], ell @ x0, x0[i])
        return BestResponse(value=float(value), grid=prof.grid.copy(), feedback=feedback)

    f_mat = c * np.outer(ell, ell)
    h_val = 0.0
    steps = prof.steps
    dt = prof.T / steps
    feedback = np.empty((steps + 1, n))
    feedback[steps] = f_mat[i]

    stages = prof.stage_matrices()

    def rhs(f_cur, kmat):
        own = np.outer(f_cur[:, i], f_cur[i, :])
        gmat = kmat.T @ f_cur
        cross = np.outer(kmat[i, :], f_cur[i, :])
        df = own + gmat + gmat.T - cross - cross.T
        dh = -0.5 * sigma**2 * np.trace(f_cur)
        return df, dh

    for j in range(steps, 0, -1):
        k_hi, k_mid, k_lo = stages[2 * j], stages[2 * j - 1], stages[2 * j - 2]
        df1, dh1 = rhs(f_mat, k_hi)
        df2, dh2 = rhs(f_mat - 0.5 * dt * df1, k_mid)
        df3, dh3 = rhs(f_mat - 0.5 * dt * df2, k_mid)
        df4, dh4 = rhs(f_mat - dt * df3, k_lo)
        f_mat = f_mat - (dt / 6.0) * (df1 + 2 * df2 + 2 * df3 + df4)
        f_mat = 0.5 * (f_mat + f_mat.T)
        h_val = h_val - (dt / 6.0) * (dh1 + 2 * dh2 + 2 * dh3 + dh4)
        if np.abs(f_mat).max() > RICCATI_BLOWUP_CAP:
            raise NumericError(
                f"best-response Riccati norm exceeded {RICCATI_BLOWUP_CAP:g} "
                f"near t = {prof.grid[j - 1]:.6g}"
            )
        feedback[j - 1] = f_mat[i]

    value = h_val
    if x0 is not None:
        value += 0.5 * float(x0 @ f_mat @ x0)
    return BestResponse(value=float(value), grid=prof.grid.copy(), feedback=feedback)


def _scalar_riccati(
    prof: LinearProfile, c: float, sigma: float, inv_deg: float
) -> tuple[np.ndarray, float, float]:
    """best_response's Riccati against a scalar profile K(t) = k(t) I.

    F then stays in span{l, e_i}: F = B G B^T with B = [l, e_i] and a
    symmetric 2x2 G = [[g11, g12], [g12, g22]].  As l_i = 1, B^T e_i is
    w = (1, 1), and e_i = B u with u = (0, 1), so with p = g11 + g12 and
    q = g12 + g22 the system becomes

        G' = G w w^T G + 2kG - k (u w^T G + G w u^T), that is
            g11' = p^2 + 2k g11,
            g12' = pq + 2k g12 - kp,
            g22' = q^2 + 2k g22 - 2kq,
        h' = -(sigma^2/2) Tr F = -(sigma^2/2) ((1 + 1/deg) g11 + 2 g12 + g22),
        G(T) = [[c, 0], [0, 0]],

    with 1/deg read as 0 for an isolated vertex (l = e_i).  G does not
    depend on the player at all, and h(0) = h_tr + h_11 / deg is linear in
    1/deg, so one solve serves every player.  The loop is best_response's
    backward RK4 on the same half-step rates, with h split into its two
    parts, and RICCATI_BLOWUP_CAP applied to F's entries: F_ii = p + q,
    F_ij = -p/deg for a neighbor j and g11/deg^2 between two neighbors.
    inv_deg is the 1/deg they are checked at; the largest 1/deg of the
    players served gives the largest entries.  The row e_i^T F is
    p l + q e_i.

    Returns G on the grid, shape (steps + 1, 3) with columns (g11, g12,
    g22), and h_tr and h_11.
    """
    steps = prof.steps
    dt = prof.T / steps
    half_sig2 = 0.5 * sigma**2
    rates = prof.stage_rates()

    def rhs(y, k):
        g11, g12, g22 = y[0], y[1], y[2]
        p = g11 + g12
        q = g12 + g22
        return (
            p * p + 2 * k * g11,
            p * q + 2 * k * g12 - k * p,
            q * q + 2 * k * g22 - 2 * k * q,
            -half_sig2 * (g11 + 2 * g12 + g22),
            -half_sig2 * g11,
        )

    y = [float(c), 0.0, 0.0, 0.0, 0.0]  # g11, g12, g22, h_tr, h_11
    rows = [y[:3]]
    for j in range(steps, 0, -1):
        k_hi, k_mid, k_lo = rates[2 * j], rates[2 * j - 1], rates[2 * j - 2]
        d1 = rhs(y, k_hi)
        d2 = rhs([v - 0.5 * dt * d for v, d in zip(y, d1)], k_mid)
        d3 = rhs([v - 0.5 * dt * d for v, d in zip(y, d2)], k_mid)
        d4 = rhs([v - dt * d for v, d in zip(y, d3)], k_lo)
        y = [v - (dt / 6.0) * (a + 2 * b + 2 * e + f) for v, a, b, e, f in zip(y, d1, d2, d3, d4)]
        g11, g12, g22 = y[:3]
        p = g11 + g12
        if max(abs(p + g12 + g22), abs(p) * inv_deg, abs(g11) * inv_deg * inv_deg) > RICCATI_BLOWUP_CAP:
            raise NumericError(
                f"best-response Riccati norm exceeded {RICCATI_BLOWUP_CAP:g} "
                f"near t = {prof.grid[j - 1]:.6g}"
            )
        rows.append(y[:3])
    return np.array(rows[::-1]), y[3], y[4]


def _quadratic(g_mat: np.ndarray, a, b):
    """x0^T F x0 / 2 for F = B G B^T, given a = l . x0 and b = x0_i."""
    g11, g12, g22 = g_mat
    return 0.5 * (g11 * a * a + 2.0 * g12 * a * b + g22 * b * b)


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


def _scalar_best_values(
    g: Graph, prof: LinearProfile, c: float, sigma: float, x0: np.ndarray | None
) -> np.ndarray:
    """Every player's best-response value against a scalar profile, from
    one 2x2 Riccati solve."""
    inv_deg = _inverse_degrees(g.degrees)
    traj, h_tr, h_11 = _scalar_riccati(prof, c, sigma, float(inv_deg.max()))
    values = h_tr + h_11 * inv_deg
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        values += _quadratic(traj[0], alignment_functionals(g) @ x0, x0)
    return values


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
    if prof.tag == "mean_field":
        bounds = epsilon_bounds(g, c, prof.T, sigma).per_vertex
    else:
        bounds = np.zeros(g.n)
    if prof.rate is not None:
        values = _scalar_best_values(g, prof, c, sigma, x0)
    else:
        values = [best_response(g, prof, i, c, sigma, x0).value for i in range(g.n)]
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
