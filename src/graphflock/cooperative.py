"""Social-planner benchmark: minimize the sum of all players' costs.

The planner's problem is solved in closed form on any graph (no symmetry
of the graph needed).  With M the Gram matrix of the terminal alignment
functionals (M = L^T L when no vertex is isolated), the value matrix is

    F(t) = c M (I + c(T-t) M)^{-1},

the noise term is h(t) = (sigma^2/2) log det(I + c(T-t) M), and the
optimal control is -F(t) x.  Everything below is evaluated per eigenvalue
nu >= 0 of M, where the F eigenvalue is c*nu / (1 + c(T-t)*nu).

The variance needs no quadrature: int_0^t (1 + c(T-s) nu)^-2 ds =
t / ((1 + c(T-t) nu)(1 + cT nu)), so it is sigma^2 t times the integral of
(1 + c(T-t) nu) / (1 + cT nu) against mu, uniform over the eigenvalues of
M, or a spectral measure pushed through lam -> lam^2 in the limit.  Values
and the noise term share one weighted log(1 + c tau nu) sum.

On a regular graph without isolated vertices the alignment functionals are
the rows of -L, so M = L^2 and its eigenvalues are the squares of the
Laplacian spectrum (closed form for cycle, torus and complete); other
graphs get them from eigvalsh of the dense Gram matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .flow import _check_model, _clamp_time
from .graphs import Graph, _vector
from .spectral import EigenSystem, SpectralMeasure, eigendecompose, laplacian_eigensystem
from .strategies import LinearProfile, alignment_functionals


@dataclass
class CoopKernel:
    """Eigen-representation of the planner's Riccati flow."""

    graph: Graph
    eigen: EigenSystem  # of the PSD matrix M
    laplacian: EigenSystem | None  # L's, where M = L^2; else None
    c: float
    T: float
    sigma: float

    @property
    def n(self) -> int:
        return self.graph.n


def coop_kernel(g: Graph, c: float, T: float, sigma: float) -> CoopKernel:
    """Build the cooperative kernel.

    Isolated vertices are handled by substituting the identity row for the
    missing neighbor average, exactly as in the per-player cost; for
    non-regular graphs M = L^T L is formed directly (L itself need not be
    symmetric).  On a regular graph without isolated vertices M = L^2: its
    eigenvalues are the squared Laplacian spectrum, and the dense M is built
    only if the eigenvectors are read.
    """
    _check_model(c=c, T=T, sigma=sigma)
    lap = None
    if g.is_regular and g.min_degree >= 1:
        lap = laplacian_eigensystem(g)
        eigen = EigenSystem(np.sort(lap.eigenvalues**2), functools.partial(_gram, g))
    else:
        gram = _gram(g)
        eigen = EigenSystem(np.clip(eigendecompose(gram).eigenvalues, 0.0, None), gram)
    return CoopKernel(graph=g, eigen=eigen, laplacian=lap, c=float(c), T=float(T), sigma=float(sigma))


def _gram(g: Graph) -> np.ndarray:
    """M = (alignment functionals)^T (alignment functionals), symmetrized."""
    functionals = alignment_functionals(g)
    gram = functionals.T @ functionals
    return 0.5 * (gram + gram.T)


def coop_feedback_eigenvalues(k: CoopKernel, t) -> np.ndarray:
    """F(t)'s eigenvalues, paired with k.eigen's columns: _feedback at M's spectrum."""
    return _feedback(k, t, k.eigen.eigenvalues)


def _feedback(k: CoopKernel, t, nu) -> np.ndarray:
    """c nu / (1 + c(T-t) nu), F(t)'s rate on M's eigenspace of each
    eigenvalue nu; a row per time of an array t."""
    return k.c * nu / (1.0 + np.multiply.outer(k.c * (k.T - _clamp_time(t, k.T)), nu))


def coop_feedback_matrix(k: CoopKernel, t: float) -> np.ndarray:
    f = k.eigen.reconstruct(coop_feedback_eigenvalues(k, t))
    return 0.5 * (f + f.T)


def _noise_term(nu: np.ndarray, weights: np.ndarray, c: float, tau: float, sigma: float) -> float:
    """(sigma^2/2) * sum_k weights_k log(1 + c tau nu_k)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a huge c overflows to inf, which callers check
        return 0.5 * sigma**2 * float(weights @ np.log1p(c * tau * nu))


def _planner_variance(nu, weights, c, T, sigma, t):
    # sigma^2 t sum_k w_k (1 + c(T-t) nu_k) / (1 + cT nu_k), summed as
    # sigma^2 t (sum_k a_k + c(T-t) sum_k a_k nu_k) with a_k = w_k / (1 + cT nu_k):
    # positive terms, so nothing cancels near nu = 0, and O(n) memory for any t.
    t = _clamp_time(t, T)
    with np.errstate(over="ignore", invalid="ignore"):  # as in _noise_term
        a = weights / (1.0 + c * T * nu)
        return sigma**2 * t * (float(a.sum()) + c * (T - t) * float(a @ nu))


def coop_value(k: CoopKernel, x0: np.ndarray | None = None) -> float:
    """Per-player cooperative value:

        (sigma^2/2) * (1/n) sum_k log(1 + c T nu_k)  [+ x0^T F(0) x0 / (2n)].
    """
    value = _noise_term(k.eigen.eigenvalues, np.full(k.n, 1.0 / k.n), k.c, k.T, k.sigma)
    if x0 is not None:
        x0 = _vector(k.graph, x0)
        value += 0.5 * float(x0 @ coop_feedback_matrix(k, 0.0) @ x0) / k.n
    return value


def coop_variance(k: CoopKernel, t):
    """Population-average state variance under the planner's control:

        sigma^2 * (1/n) sum_k int_0^t ((1 + c(T-t) nu_k)/(1 + c(T-s) nu_k))^2 ds
      = sigma^2 t * (1/n) sum_k (1 + c(T-t) nu_k) / (1 + cT nu_k),

    a float for one t, an array for an array of times.  On a walk-regular
    graph this is also every single player's variance.
    """
    return _planner_variance(k.eigen.eigenvalues, np.full(k.n, 1.0 / k.n), k.c, k.T, k.sigma, t)


def coop_h(k: CoopKernel, t: float) -> float:
    """Noise term via the spectrum: (sigma^2/2) sum log(1 + c(T-t) nu)."""
    t = _clamp_time(t, k.T)
    return _noise_term(k.eigen.eigenvalues, np.ones(k.n), k.c, k.T - t, k.sigma)


def coop_h_logdet(k: CoopKernel, t: float) -> float:
    """Same noise term via a dense log-determinant (independent route)."""
    t = _clamp_time(t, k.T)
    gram = k.eigen.reconstruct()
    sign, logdet = np.linalg.slogdet(np.eye(k.n) + k.c * (k.T - t) * gram)
    if sign <= 0:
        raise ParameterError("cooperative determinant lost positivity")
    return 0.5 * k.sigma**2 * float(logdet)


def coop_profile(k: CoopKernel) -> LinearProfile:
    """The planner's control as a LinearProfile (K(t) = F(t)), usable with
    the strategy-evaluation moment ODEs for cross-checking.  Where
    coop_kernel has M = L^2, it is spectral in the eigensystem of L that
    coop_kernel took, with rate c lam^2 / (1 + c(T-t) lam^2) on L's
    eigenspace of lam; elsewhere dense."""
    if k.laplacian is None:
        return LinearProfile(k.n, k.T, "coop", matrix_fn=lambda t: coop_feedback_matrix(k, t))
    return LinearProfile(k.n, k.T, "coop", lambda t, lam: _feedback(k, t, lam**2), k.laplacian)


def coop_value_measure(mu: SpectralMeasure, c: float, T: float, sigma: float) -> float:
    """Per-player cooperative value for a (limit) spectral measure:
    (sigma^2/2) * integral of log(1 + c T lam^2) dmu(lam)."""
    _check_model(c=c, T=T, sigma=sigma)
    return _noise_term(mu.nodes**2, mu.weights, c, T, sigma)


def coop_variance_measure(mu: SpectralMeasure, c: float, T: float, sigma: float, t):
    """Cooperative per-player variance for a (limit) spectral measure,
    sigma^2 t * integral of (1 + c(T-t) lam^2) / (1 + cT lam^2) dmu(lam), at
    one time t (a float back) or at an array of times (an array back)."""
    _check_model(c=c, T=T, sigma=sigma)
    return _planner_variance(mu.nodes**2, mu.weights, c, T, sigma, t)
