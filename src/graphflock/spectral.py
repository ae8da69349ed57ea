"""Normalized Laplacians, eigendecompositions, and spectral measures.

The spectral measure of a graph is the uniform distribution over the
eigenvalues of L = D^{-1}A - I; it always lives on [-2, 0] and has mean -1.
Large-graph limits of interest (point mass at -1, the cycle limit, the
d-dimensional torus limit, the Kesten-McKay law of random regular graphs)
are represented the same way: as a node/weight quadrature rule against
which smooth integrands can be integrated to ~1e-8 or better.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import roots_legendre

from .errors import DomainError, NumericError, ParameterError
from .graphs import Graph

#: Eigenvalues may stick out of [-2, 0] by at most this much before clamping.
EIGENVALUE_CLAMP_TOL = 1e-9

#: Relative symmetry tolerance for matrices fed to the eigensolver.
SYMMETRY_TOL = 1e-12

#: Total-mass tolerance for any spectral measure.
MASS_TOL = 1e-10

#: Mean tolerance: every measure here must have mean -1 within this.
MEAN_TOL = 1e-8

#: Gauss-Legendre nodes per axis for the periodic cosine parameterization.
COS_RULE_NODES = 64

#: Node count of compressed quadrature rules for multi-axis limit measures.
COMPRESSED_RULE_NODES = 64

#: Gauss-Legendre nodes for the Kesten-McKay rule (after the sine substitution).
KESTEN_MCKAY_NODES = 256


def laplacian(g: Graph) -> np.ndarray:
    """Random-walk normalized Laplacian D^{-1}A - I.

    Requires every degree to be nonzero.  The result is symmetric exactly
    when the graph is regular; non-regular graphs get the (non-symmetric)
    matrix back, which only the mean-field and cooperative paths may use.
    """
    isolated = np.flatnonzero(g.degrees == 0)
    if isolated.size:
        raise DomainError(
            f"graph has isolated vertex {int(isolated[0])}; the normalized "
            "Laplacian needs all degrees nonzero"
        )
    return g.adjacency / g.degrees[:, None] - np.eye(g.n)


@dataclass(frozen=True)
class EigenSystem:
    """Sorted spectrum and orthonormal eigenbasis of a symmetric matrix.

    eigenvalues is ascending; column j of eigenvectors pairs with
    eigenvalues[j].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self, values: np.ndarray | None = None) -> np.ndarray:
        """V diag(values) V^T; the system's own eigenvalues by default."""
        v = self.eigenvectors
        return (v * (self.eigenvalues if values is None else values)) @ v.T


def eigendecompose(m: np.ndarray) -> EigenSystem:
    """Full symmetric eigendecomposition with an explicit symmetry gate."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if float(np.abs(m - m.T).max(initial=0.0)) > SYMMETRY_TOL * scale:
        raise DomainError("matrix is not symmetric; eigendecompose refuses to proceed")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc
    return EigenSystem(eigenvalues=vals, eigenvectors=vecs)


def laplacian_eigensystem(g: Graph) -> EigenSystem:
    """Eigendecomposition of the graph Laplacian, clamped to [-2, 0].

    Eigenvalues outside [-2 - tol, 0 + tol] indicate a broken input and
    raise instead of being clamped.
    """
    es = eigendecompose(laplacian(g))
    vals = es.eigenvalues
    if vals.min() < -2.0 - EIGENVALUE_CLAMP_TOL or vals.max() > EIGENVALUE_CLAMP_TOL:
        raise NumericError(
            f"Laplacian spectrum escapes [-2, 0] beyond tolerance: "
            f"range [{vals.min():.3e}, {vals.max():.3e}]"
        )
    if vals.max() < -EIGENVALUE_CLAMP_TOL:
        # the all-ones direction is always a zero eigenvector of D^{-1}A - I
        raise NumericError("Laplacian spectrum is missing its zero eigenvalue")
    return EigenSystem(np.clip(vals, -2.0, 0.0), es.eigenvectors)


@dataclass(frozen=True)
class SpectralMeasure:
    """Probability measure on [-2, 0] with mean -1, plus a quadrature rule.

    For kind="discrete" the nodes/weights are the atoms themselves and
    integration is exact.  For analytic limit kinds the rule integrates
    smooth functions to at least ~1e-8 (machine precision in practice).
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    params: dict = field(default_factory=dict)

    def integrate(self, h) -> float:
        values = np.asarray(h(self.nodes), dtype=float)
        if not np.all(np.isfinite(values)):
            raise NumericError(f"integrand returned non-finite values on the support of {self.kind}")
        return float(self.weights @ values)

    def mean(self) -> float:
        return self.integrate(lambda lam: lam)

    def variance(self) -> float:
        return self.integrate(lambda lam: (lam + 1.0) ** 2)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "params": dict(self.params)}
        if self.kind == "discrete":
            out["atoms"] = [
                {"value": float(v), "weight": float(w)}
                for v, w in zip(self.nodes, self.weights)
            ]
        return out


def integrate(mu: SpectralMeasure, h) -> float:
    """Integral of h against the measure (exact sum for discrete measures)."""
    return mu.integrate(h)


def measure_moments(mu: SpectralMeasure) -> tuple[float, float]:
    """(mean, variance) of the measure, both via its quadrature rule."""
    return mu.mean(), mu.variance()


def _validate_measure(mu: SpectralMeasure) -> SpectralMeasure:
    mass = float(mu.weights.sum())
    if abs(mass - 1.0) > MASS_TOL:
        raise NumericError(f"{mu.kind} measure has mass {mass!r}, expected 1")
    if mu.nodes.min() < -2.0 - EIGENVALUE_CLAMP_TOL or mu.nodes.max() > EIGENVALUE_CLAMP_TOL:
        raise NumericError(f"{mu.kind} measure has support outside [-2, 0]")
    mean = mu.mean()
    if abs(mean + 1.0) > MEAN_TOL:
        raise NumericError(f"{mu.kind} measure has mean {mean!r}, expected -1")
    return mu


def discrete_measure(eigenvalues: np.ndarray, params: dict | None = None) -> SpectralMeasure:
    """Uniform measure over a given Laplacian spectrum."""
    vals = np.sort(np.asarray(eigenvalues, dtype=float))
    n = vals.size
    mu = SpectralMeasure(
        kind="discrete",
        nodes=vals,
        weights=np.full(n, 1.0 / n),
        params=params or {"n": int(n)},
    )
    return _validate_measure(mu)


def empirical_measure(g: Graph, es: EigenSystem | None = None) -> SpectralMeasure:
    """Empirical eigenvalue distribution of the graph Laplacian.

    Restricted to regular graphs without isolated vertices so that the
    Laplacian is symmetric.  Post-checks: mean is -1 and the variance
    equals 1/degree to 1e-10 (a trace identity of regular graphs).
    Passing an already-computed eigensystem skips the decomposition.
    """
    if not g.is_regular:
        raise DomainError("empirical_measure needs a regular graph (symmetric Laplacian)")
    if es is None:
        es = laplacian_eigensystem(g)
    degree = int(g.degrees[0])
    mu = discrete_measure(es.eigenvalues, params={"n": g.n, "degree": degree})
    var = mu.variance()
    if abs(var - 1.0 / degree) > 1e-10:
        raise NumericError(
            f"empirical measure variance {var!r} deviates from 1/degree = {1.0 / degree!r}"
        )
    return mu


def _legendre_01(m: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_legendre(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _cosine_rule(m: int = COS_RULE_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for the law of cos(2*pi*U), U uniform on [0, 1].

    Integrating in u instead of in the value avoids the inverse-square-root
    endpoint singularities of the arcsine density.
    """
    u, w = _legendre_01(m)
    return np.cos(2.0 * np.pi * u), w


def _gauss_rule_from_atoms(values: np.ndarray, weights: np.ndarray, n_nodes: int):
    """Gauss quadrature rule of a discrete measure via the Stieltjes procedure.

    Builds the three-term recurrence of the orthonormal polynomials of the
    atom measure, then takes nodes/weights from the Jacobi matrix.  The
    resulting n-node rule matches the atom measure on all polynomials of
    degree < 2n, which is machine-exact for the analytic integrands used
    throughout this package.
    """
    if values.size <= n_nodes:
        return values.copy(), weights.copy()
    alpha = np.zeros(n_nodes)
    beta = np.zeros(n_nodes)
    beta[0] = weights.sum()
    p_prev = np.zeros_like(values)
    p = np.ones_like(values) / np.sqrt(beta[0])
    for k in range(n_nodes):
        alpha[k] = float(weights @ (values * p * p))
        if k == n_nodes - 1:
            break
        q = (values - alpha[k]) * p - (np.sqrt(beta[k]) if k > 0 else 0.0) * p_prev
        beta[k + 1] = float(weights @ (q * q))
        if beta[k + 1] <= 0.0:
            raise NumericError("Stieltjes recurrence broke down while compressing a quadrature rule")
        p_prev, p = p, q / np.sqrt(beta[k + 1])
    nodes, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
    rule_weights = beta[0] * vecs[0] ** 2
    return nodes, rule_weights


def _check_compression(nodes, weights, raw_nodes, raw_weights, label: str) -> None:
    # The compressed rule must reproduce the raw tensor rule on the
    # log/resolvent integrands this package actually integrates.
    for x in (0.5, 2.0, 8.0):
        raw = raw_weights @ np.log1p(-x * raw_nodes)
        comp = weights @ np.log1p(-x * nodes)
        if abs(raw - comp) > 1e-10:
            raise NumericError(f"compressed {label} rule mismatches its tensor rule by {abs(raw - comp):.2e}")


def _torus_rule(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rule for the law of (1/d) * sum_i cos(2*pi*U_i) - 1.

    The d-fold sum is built by iterated convolution: tensor the running
    rule with one more cosine axis, then compress back to a fixed node
    count with a Gauss rule of the tensored atoms.  Each stage is verified
    against its own tensor rule, keeping any d cheap and ~1e-12 accurate.
    """
    c_nodes, c_weights = _cosine_rule()
    nodes, weights = c_nodes, c_weights
    for axes in range(2, d + 1):
        raw_nodes = (nodes[:, None] + c_nodes[None, :]).ravel()
        raw_weights = (weights[:, None] * c_weights[None, :]).ravel()
        nodes, weights = _gauss_rule_from_atoms(raw_nodes, raw_weights, COMPRESSED_RULE_NODES)
        # Compare on lam = sum/axes - 1 in [-2, 0]: the raw cosine sums reach
        # +axes, where log1p(-x * node) is undefined.
        _check_compression(nodes / axes - 1.0, weights, raw_nodes / axes - 1.0, raw_weights, f"torus stage {axes}")
    lam = nodes / d - 1.0
    return np.clip(lam, -2.0, 0.0), weights


def _kesten_mckay_rule(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for the Kesten-McKay law of d-regular graph Laplacians.

    Density sqrt(4(d-1) - d^2 (1+lam)^2) / (2*pi*(1 - (1+lam)^2)) on
    |1+lam| <= 2*sqrt(d-1)/d.  Substituting 1+lam = R*sin(theta) with
    R = 2*sqrt(d-1)/d removes the endpoint square root, leaving a smooth
    integrand for Gauss-Legendre in theta.
    """
    r = 2.0 * np.sqrt(d - 1.0) / d
    x, w = roots_legendre(KESTEN_MCKAY_NODES)
    theta = 0.5 * np.pi * x
    w = 0.5 * np.pi * w
    s = r * np.sin(theta)
    density_dtheta = (r * np.sqrt(d - 1.0) / np.pi) * np.cos(theta) ** 2 / (1.0 - s**2)
    return s - 1.0, w * density_dtheta


def limit_measure(kind: str, d: int | None = None) -> SpectralMeasure:
    """Analytic limit measures: 'dirac_minus_one', 'cycle_limit',
    'torus_limit' (d >= 1), 'kesten_mckay' (d >= 3)."""
    if kind == "dirac_minus_one":
        mu = SpectralMeasure(kind, np.array([-1.0]), np.array([1.0]))
    elif kind == "cycle_limit":
        c_nodes, c_weights = _cosine_rule()
        mu = SpectralMeasure(kind, c_nodes - 1.0, c_weights)
    elif kind == "torus_limit":
        if d is None or d < 1:
            raise ParameterError(f"torus_limit needs d >= 1, got {d}")
        nodes, weights = _torus_rule(int(d))
        mu = SpectralMeasure(kind, nodes, weights, params={"d": int(d)})
    elif kind == "kesten_mckay":
        if d is None or d < 3:
            raise ParameterError(
                f"kesten_mckay needs d >= 3 (d = 2 is the cycle limit), got {d}"
            )
        nodes, weights = _kesten_mckay_rule(int(d))
        mu = SpectralMeasure(kind, nodes, weights, params={"d": int(d)})
    else:
        raise ParameterError(f"unknown limit measure kind {kind!r}")
    return _validate_measure(mu)


def measure_from_dict(data: dict) -> SpectralMeasure:
    """Inverse of SpectralMeasure.to_dict."""
    kind = data.get("kind")
    if kind == "discrete":
        atoms = data.get("atoms", [])
        vals = np.array([a["value"] for a in atoms])
        weights = np.array([a["weight"] for a in atoms])
        mu = SpectralMeasure("discrete", vals, weights, params=dict(data.get("params", {})))
        return _validate_measure(mu)
    return limit_measure(kind, d=data.get("params", {}).get("d"))


def kesten_mckay_cdf(d: int, points: np.ndarray) -> np.ndarray:
    """CDF of the Kesten-McKay Laplacian law evaluated at the given points."""
    r = 2.0 * np.sqrt(d - 1.0) / d
    x, w = roots_legendre(KESTEN_MCKAY_NODES)

    def mass_below(theta_hi: float) -> float:
        lo = -0.5 * np.pi
        theta = 0.5 * (theta_hi - lo) * x + 0.5 * (theta_hi + lo)
        scale = 0.5 * (theta_hi - lo)
        s = r * np.sin(theta)
        dens = (r * np.sqrt(d - 1.0) / np.pi) * np.cos(theta) ** 2 / (1.0 - s**2)
        return float(scale * (w @ dens))

    points = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.empty(points.size)
    for i, lam in enumerate(points):
        z = (lam + 1.0) / r
        if z <= -1.0:
            out[i] = 0.0
        elif z >= 1.0:
            out[i] = 1.0
        else:
            out[i] = mass_below(float(np.arcsin(z)))
    return out


def ks_distance(mu: SpectralMeasure, cdf) -> float:
    """Kolmogorov-Smirnov distance between a discrete measure and a CDF."""
    if mu.kind != "discrete":
        raise ParameterError("ks_distance expects a discrete measure")
    order = np.argsort(mu.nodes)
    vals = mu.nodes[order]
    cum = np.cumsum(mu.weights[order])
    target = np.asarray(cdf(vals), dtype=float)
    below = np.abs(np.concatenate(([0.0], cum[:-1])) - target)
    above = np.abs(cum - target)
    return float(max(below.max(), above.max()))
