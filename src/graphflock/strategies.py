"""Cost evaluation, best responses, and approximate-equilibrium audits.

A LinearProfile assigns every player the feedback control
alpha_i(t, x) = -(row i of K(t)) . x.  Costs under a profile are computed
by deterministic moment propagation; best responses against a frozen
profile reduce to a backward matrix Riccati equation (derivation in
best_response).  Together they quantify how far any profile is from
equilibrium, which is what the Nash and epsilon-Nash audits report.

There is one Riccati solver (_riccati): it writes player i's matrix as
F = B G B^T in a basis B that holds it, and the profile's structure picks
B.  A dense profile (equilibrium, cooperative, custom) has B = I.  Its
n x n matrices are evaluated on the half-step grid and cached on the
profile, up to STAGE_CACHE_BUDGET bytes.  A scalar profile, K(t) = k(t) I
(mean-field and zero), carries its rate k and has B = [l_i, e_i], with l_i
the terminal alignment functional.  Its 2x2 G is the same for every
player, and only the noise term depends on i, through deg(i): a whole
audit is one 2x2 solve, O(steps + n) work.  Its state covariance stays
s(t) I, so its costs come from a few scalar ODEs (_scalar_costs).  Every
solver steps with flow.rk4_step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError
from .flow import DEFAULT_ODE_STEPS, rk4_step
from .graphs import Graph
from .equilibrium import EquilibriumKernel, p_eigenvalues, p_matrix
from .spectral import EigenSystem

#: Abort threshold for the backward Riccati solve; this game's Riccati is
#: globally solvable, so exceeding it means a bug or a pathological profile.
RICCATI_BLOWUP_CAP = 1e8

#: Largest stage cache, in bytes, that a dense profile may build: it holds
#: (2 steps + 1) n x n float64 matrices.  complete(50) at 2000 steps takes
#: 80 MB; complete(300) would take 2.9 GB.
STAGE_CACHE_BUDGET = 512 * 2**20


@dataclass
class LinearProfile:
    """Time-dependent linear feedback profile on a uniform grid of [0, T].

    matrix_fn evaluates the full n x n feedback map at any t in [0, T]
    (RK4 needs half-step values); the grid fixes the discretization that
    cost and best-response solvers use.  A scalar profile also sets rate,
    with K(t) = rate(t) I; the solvers then use the scalar and never build
    the dense matrices.  A spectral profile also sets eigen and
    eigen_rates, with K(t) = V diag(eigen_rates(t)) V^T for V =
    eigen.eigenvectors; only Monte Carlo reads that form.
    """

    n: int
    T: float
    grid: np.ndarray
    tag: str
    matrix_fn: Callable[[float], np.ndarray]
    rate: Callable[[float], float] | None = None
    eigen: EigenSystem | None = None
    eigen_rates: Callable[[float], np.ndarray] | None = None
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
        runtime otherwise.  Raises ParameterError, before evaluating any
        matrix, when the cache would exceed STAGE_CACHE_BUDGET.
        """
        if self._stage_cache is None:
            size = (2 * self.steps + 1) * self.n**2 * 8
            if size > STAGE_CACHE_BUDGET:
                raise ParameterError(
                    f"a dense profile on {self.n} players at {self.steps} steps needs "
                    f"{size / 2**20:.0f} MiB of stage matrices, over the "
                    f"{STAGE_CACHE_BUDGET / 2**20:.0f} MiB budget; use fewer steps"
                )
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
    """Profile whose rows are the equilibrium feedback P(t).

    It also carries its spectral form: the kernel's eigensystem and the
    eigenvalues p_eigenvalues(k, t) of P(t)."""
    return LinearProfile(
        n=k.n,
        T=k.T,
        grid=k.schedule.grid.copy(),
        tag="equilibrium",
        matrix_fn=lambda t: p_matrix(k, t),
        eigen=k.eigen,
        eigen_rates=lambda t: p_eigenvalues(k, t),
    )


def zero_profile(g: Graph, T: float, steps: int = DEFAULT_ODE_STEPS) -> LinearProfile:
    """All players apply the zero control (states are Brownian motions)."""
    return _scalar_profile(g, T, steps, "zero", lambda t: 0.0)


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
    h = prof.T / prof.steps
    eye = np.eye(n)
    sig2 = sigma**2
    stages = prof.stage_matrices()
    # One array holds the state: S in rows 0..n-1, m in row n, costs in row n + 1.
    y = np.zeros((n + 2, n))
    y[n] = m

    def derivs(y_cur, kmat):
        s_cur, m_cur = y_cur[:n], y_cur[n]
        second = s_cur + np.outer(m_cur, m_cur)
        out = np.empty_like(y_cur)
        out[:n] = -kmat @ s_cur - s_cur @ kmat.T + sig2 * eye
        out[n] = -kmat @ m_cur
        out[n + 1] = 0.5 * np.einsum("ij,jk,ik->i", kmat, second, kmat)
        return out

    for j in range(prof.steps):
        y = rk4_step(derivs, y, h, stages[2 * j : 2 * j + 3])
        y[:n] = 0.5 * (y[:n] + y[:n].T)

    functionals = alignment_functionals(g)
    second = y[:n] + np.outer(y[n], y[n])
    return y[n + 1] + 0.5 * c * np.einsum("ij,jk,ik->i", functionals, second, functionals)


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

    def derivs(y, k):
        s_cur, phi_cur = y[0], y[1]
        half_k2 = 0.5 * k * k
        return np.array([-2.0 * k * s_cur + sig2, -k * phi_cur, half_k2 * s_cur, half_k2 * phi_cur * phi_cur])

    y = np.array([0.0, 1.0, 0.0, 0.0])  # s, phi, and the running costs of s and of phi^2
    for j in range(prof.steps):
        y = rk4_step(derivs, y, h, rates[2 * j : 2 * j + 3])
    s, phi, run_s, run_m = y

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
    control is -(e_i^T F(t)) x.  The returned value is
    x0^T F(0) x0 / 2 + h(0).  _riccati solves the system in a basis that
    holds F: B = I against a dense profile, B = [l, e_i] against a scalar
    one.
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
    e_i = np.zeros(n)
    e_i[i] = 1.0
    if prof.rate is None:
        # B = I: G = F, w = u = e_i, a = l_i, and the coefficient is K itself.
        gw, g0, integral = _riccati(prof, c, prof.stage_matrices(), e_i, e_i, ell, None)
        feedback, gram, coords = gw, np.eye(n), x0
    else:
        inv_deg = float(_inverse_degrees(g.degrees[i]))
        basis = np.column_stack((ell, e_i))
        gw, g0, integral = _riccati(prof, c, *_scalar_basis(prof, inv_deg))
        feedback, gram = gw @ basis.T, _scalar_grams(inv_deg)
        coords = None if x0 is None else x0 @ basis
    value = _best_values(gram, integral, g0, coords, sigma)[0]
    return BestResponse(value=float(value), grid=prof.grid.copy(), feedback=feedback)


def _riccati(
    prof: LinearProfile, c: float, coeffs: list, w: np.ndarray, u: np.ndarray, a: np.ndarray, rows: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """best_response's Riccati for F = B G B^T, in a basis B that holds F.

    With w = B^T e_i, e_i = B u, l_i = B a, and K^T B = B Kt^T (coeffs
    holds Kt on the half-step grid), the system becomes

        G' = G w w^T G + Kt^T G + G Kt - Kt^T u w^T G - G w u^T Kt,
        G(T) = c a a^T,

    and h(0) = (sigma^2/2) <B^T B, P> for P, the integral of G over
    [0, T], which is solved alongside as P' = -G, P(T) = 0.  The solve is
    backward RK4 on the profile grid; G is re-symmetrized after every step,
    and the solve stops once an entry of F exceeds RICCATI_BLOWUP_CAP.  Those
    entries are the entries of R G R^T for the distinct rows R of B, given
    as rows; rows=None stands for B = I, where F = G.

    Returns G w on the grid (row j gives the optimal feedback row
    e_i^T F = (G w)^T B^T at grid[j]), G(0) and P.
    """
    steps = prof.steps
    dt = prof.T / steps
    y = np.zeros((2, w.size, w.size))  # G, P
    y[0] = c * np.outer(a, a)
    gw = np.empty((steps + 1, w.size))
    gw[steps] = y[0] @ w

    def rhs(y_cur, kt):
        g_cur = y_cur[0]
        row = w @ g_cur
        half = kt.T @ (g_cur - u[:, None] * row)  # Kt^T G - Kt^T u w^T G
        out = np.empty_like(y_cur)
        np.multiply((g_cur @ w)[:, None], row, out=out[0])
        out[0] += half
        out[0] += half.T
        np.negative(g_cur, out=out[1])
        return out

    for j in range(steps, 0, -1):
        y = rk4_step(rhs, y, -dt, (coeffs[2 * j], coeffs[2 * j - 1], coeffs[2 * j - 2]))
        g_mat = y[0] = 0.5 * (y[0] + y[0].T)
        f_entries = g_mat if rows is None else rows @ g_mat @ rows.T
        if np.abs(f_entries).max() > RICCATI_BLOWUP_CAP:
            raise NumericError(
                f"best-response Riccati norm exceeded {RICCATI_BLOWUP_CAP:g} "
                f"near t = {prof.grid[j - 1]:.6g}"
            )
        gw[j - 1] = g_mat @ w
    return gw, y[0], y[1]


def _scalar_basis(prof: LinearProfile, inv_deg: float) -> tuple:
    """_riccati's coeffs, w, u, a and rows for a scalar profile.

    In B = [l_i, e_i], Kt = k(t) I_2, w = (1, 1) and a = (1, 0) because
    l_i has 1 at i, and u = (0, 1).  G then does not depend on the player.
    F's largest entries are F_ii, from B's row (1, 1), and those at i's
    neighbors, from their rows (-1/deg, 0); inv_deg is the 1/deg they are
    checked at, and the largest 1/deg of the players served bounds them all.
    """
    eye = np.eye(2)
    coeffs = [k * eye for k in prof.stage_rates()]
    return coeffs, np.ones(2), eye[1], eye[0], np.array([[1.0, 1.0], [-inv_deg, 0.0]])


def _scalar_grams(inv_deg) -> np.ndarray:
    """B^T B = [[1 + 1/deg, 1], [1, 1]] for B = [l_i, e_i], per 1/deg given."""
    grams = np.ones(np.shape(inv_deg) + (2, 2))
    grams[..., 0, 0] += inv_deg
    return grams


def _best_values(grams: np.ndarray, integral: np.ndarray, g0: np.ndarray, coords, sigma: float) -> np.ndarray:
    """x0^T F(0) x0 / 2 + h(0) from a _riccati solve, one value per B^T B
    in grams: h(0) = (sigma^2/2) <B^T B, P> as a flat dot product, and
    x0^T F(0) x0 = z^T G(0) z for z = B^T x0 (coords: one z per row, or
    None for x0 = 0)."""
    values = 0.5 * sigma**2 * (grams.reshape(-1, integral.size) @ integral.ravel())
    if coords is not None:
        z = np.atleast_2d(coords)
        values += 0.5 * np.einsum("pi,ij,pj->p", z, g0, z)
    return values


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
    if prof.tag == "mean_field":
        bounds = epsilon_bounds(g, c, prof.T, sigma).per_vertex
    else:
        bounds = np.zeros(g.n)
    if prof.rate is not None:
        # One 2x2 solve serves every player (see _scalar_basis).
        inv_deg = _inverse_degrees(g.degrees)
        _, g0, integral = _riccati(prof, c, *_scalar_basis(prof, float(inv_deg.max())))
        coords = None if x0 is None else np.column_stack((alignment_functionals(g) @ x0, x0))
        values = _best_values(_scalar_grams(inv_deg), integral, g0, coords, sigma)
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
