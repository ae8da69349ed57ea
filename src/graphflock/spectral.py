"""Normalized Laplacians, eigendecompositions, and spectral measures.

The spectral measure of a graph is the uniform distribution over the
eigenvalues of L = D^{-1}A - I; it always lives on [-2, 0] and has mean -1.
Large-graph limits of interest (point mass at -1, the cycle limit, the
d-dimensional torus limit, the Kesten-McKay law of random regular graphs)
are represented the same way: as a node/weight quadrature rule against
which smooth integrands can be integrated to ~1e-8 or better.  A measure
is its kind and its rule; measure_spec's KIND[:D] is its one text grammar.

Every equilibrium quantity is an integral against the spectrum, so an
EigenSystem holds its eigenvalues from the start and computes the
eigenvectors (a full eigh) only when a caller first reads them.  Graphs
built by graphs.cycle, graphs.torus and graphs.complete get their
Laplacian spectrum in closed form, without any eigensolver and without
any n x n matrix.  Every other graph's symmetric Laplacian is filled
densely from its neighbor lists and handed to np.linalg.eigvalsh, LAPACK's
syevd on a working copy: a spectrum peaks at two n^2 arrays, the Laplacian
and that copy.  scipy's syevd could overwrite the Laplacian instead, but
importing scipy.linalg costs a process about 29 MB and 0.27 s, which
outweighs the second array up to n of about 1500 in peak resident memory.

So this module runs on numpy alone.  Limit measures' Gauss-Legendre rules
come from numpy's leggauss, and compressed rules from the eigensystem of a
small dense Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, NumericError, ParameterError
from .graphs import Graph

#: Eigenvalues may stick out of [-2, 0] by at most this much before clamping.
EIGENVALUE_CLAMP_TOL = 1e-9

#: Relative gap below which sorted eigenvalues share an eigenspace: far above
#: eigvalsh's rounding (about n * 1e-16), far below the spectral gaps here.
EIGENSPACE_TOL = 1e-10

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
    """Random-walk normalized Laplacian D^{-1}A - I, as a dense matrix.

    Requires every degree to be nonzero.  The result is symmetric exactly
    when the graph is regular; non-regular graphs get the (non-symmetric)
    matrix back, which only the mean-field and cooperative paths may use.
    """
    return _dense_laplacian(g, symmetric=False)


def _dense_laplacian(g: Graph, symmetric: bool) -> np.ndarray:
    """D^{-1}A - I, or the similar D^{-1/2} A D^{-1/2} - I when symmetric,
    filled from the neighbor lists: 1/deg (or 1/sqrt(deg deg)) at each edge
    and -1 on the diagonal.  On a regular graph the two are the same bits."""
    isolated = np.flatnonzero(g.degrees == 0)
    if isolated.size:
        raise DomainError(
            f"graph has isolated vertex {int(isolated[0])}; the normalized "
            "Laplacian needs all degrees nonzero"
        )
    rows, deg = g.rows, g.degrees
    out = np.zeros((g.n, g.n))
    out[rows, g.indices] = 1.0 / (np.sqrt(deg[rows] * deg[g.indices]) if symmetric else deg[rows])
    np.fill_diagonal(out, -1.0)
    return out


class EigenSystem:
    """Sorted spectrum of a symmetric matrix, with its orthonormal eigenbasis
    computed on first use.

    eigenvalues is ascending; column j of eigenvectors pairs with
    eigenvalues[j].  The first read of eigenvectors runs a full eigh on the
    source matrix (or on what the source function returns), checks that its
    eigenvalues agree with the stored ones to EIGENVALUE_CLAMP_TOL times
    max(1, spectral radius), caches the vectors and drops the source.
    """

    def __init__(self, eigenvalues: np.ndarray, source):
        self.eigenvalues = eigenvalues
        self._source = source  # the matrix, or a function building it
        self._vectors = None

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._vectors is None:
            m = self._source() if callable(self._source) else self._source
            vals, vecs = _solve(np.linalg.eigh, m)
            gap = float(np.abs(vals - self.eigenvalues).max(initial=0.0))
            scale = max(1.0, float(np.abs(self.eigenvalues).max(initial=0.0)))
            if gap > EIGENVALUE_CLAMP_TOL * scale:
                raise NumericError(f"eigh spectrum differs from the stored eigenvalues by {gap:.3e}")
            self._vectors, self._source = vecs, None
        return self._vectors

    def eigenspaces(self) -> np.ndarray:
        """starts: eigenspace k holds columns starts[k]:starts[k + 1] of
        eigenvectors.  An eigenvalue within EIGENSPACE_TOL * max(1, spectral
        radius) of its predecessor joins the predecessor's eigenspace."""
        scale = max(1.0, float(np.abs(self.eigenvalues).max(initial=0.0)))
        return np.flatnonzero(np.diff(self.eigenvalues, prepend=-np.inf) > EIGENSPACE_TOL * scale)

    def reconstruct(self, values: np.ndarray | None = None) -> np.ndarray:
        """V diag(values) V^T; the system's own eigenvalues by default."""
        v = self.eigenvectors
        return (v * (self.eigenvalues if values is None else values)) @ v.T


def _solve(solver, m: np.ndarray):
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver failed: {exc}") from exc


def eigendecompose(m: np.ndarray) -> EigenSystem:
    """Symmetric eigendecomposition with an explicit symmetry gate.

    Only the eigenvalues are computed here (eigvalsh); the eigenvectors
    follow on first use.  The gate allocates one n x n temporary, m - m.T,
    and frees it before the solve.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(m.max(initial=0.0)), -float(m.min(initial=0.0)))
    diff = m - m.T
    asymmetry = float(np.abs(diff, out=diff).max(initial=0.0))
    del diff
    if asymmetry > SYMMETRY_TOL * scale:
        raise DomainError("matrix is not symmetric; eigendecompose refuses to proceed")
    return EigenSystem(_solve(np.linalg.eigvalsh, m), m)


def _int_param(g: Graph, key: str) -> int | None:
    value = g.params.get(key)
    return value if isinstance(value, (int, np.integer)) else None


def _is_torus(g: Graph, side: int, d: int) -> bool:
    """Whether g is exactly torus(side, d), with vertex sum_i coord_i side^i:
    every degree is 2d and every vertex is adjacent to its successor along
    each axis (side >= 3 makes those 2d neighbours distinct)."""
    if not (g.degrees == 2 * d).all():
        return False
    idx = np.arange(g.n)
    for axis in range(d):
        stride = side**axis
        coord = (idx // stride) % side
        if not g.has_edges(idx, idx + stride * ((coord + 1) % side - coord)).all():
            return False
    return True


def _closed_form_spectrum(g: Graph) -> np.ndarray | None:
    """Unsorted Laplacian spectrum of a graph built by cycle, torus or
    complete; None for any other graph.

    The construction record is trusted only when n, the degrees and the
    lattice edges confirm it.  complete(n): 0 once and -n/(n-1) n-1 times.
    torus(side, d): the mean over axes of cos(2 pi k_i/side), minus 1;
    cycle(n) is torus(n, 1).
    """
    n = g.n
    if g.construction == "complete" and _int_param(g, "n") == n >= 2 and (g.degrees == n - 1).all():
        vals = np.full(n, -n / (n - 1))
        vals[0] = 0.0
        return vals
    if g.construction == "cycle":
        side, d = _int_param(g, "n") or 0, 1
    elif g.construction == "torus":
        side, d = _int_param(g, "side") or 0, _int_param(g, "d") or 0
    else:
        return None
    if not (side >= 3 and d >= 1 and side**d == n and _is_torus(g, side, d)):
        return None
    axis = np.cos(2.0 * np.pi * np.arange(side) / side)
    sums = axis
    for _ in range(d - 1):
        sums = (sums[:, None] + axis[None, :]).ravel()
    return sums / d - 1.0


def laplacian_eigensystem(g: Graph) -> EigenSystem:
    """Eigensystem of the graph Laplacian, clamped to [-2, 0].

    Graphs built by cycle, torus and complete get their spectrum in closed
    form, other graphs from np.linalg.eigvalsh of D^{-1/2} A D^{-1/2} - I,
    which is the Laplacian itself on a regular graph and similar to it
    otherwise (its eigenvectors are the ones they get).  eigvalsh solves on
    its own copy, so the solve holds two n^2 arrays at its peak.  The matrix
    is symmetric because the graph's lists are, so it skips
    eigendecompose's symmetry gate, and it is rebuilt when the eigenvectors
    are first read.
    Eigenvalues outside [-2 - tol, 0 + tol] indicate a broken input and
    raise instead of being clamped.
    """
    source = functools.partial(_dense_laplacian, g, symmetric=True)
    vals = _closed_form_spectrum(g)
    vals = _solve(np.linalg.eigvalsh, source()) if vals is None else np.sort(vals)
    if vals.min() < -2.0 - EIGENVALUE_CLAMP_TOL or vals.max() > EIGENVALUE_CLAMP_TOL:
        raise NumericError(
            f"Laplacian spectrum escapes [-2, 0] beyond tolerance: "
            f"range [{vals.min():.3e}, {vals.max():.3e}]"
        )
    if vals.max() < -EIGENVALUE_CLAMP_TOL:
        # the all-ones direction is always a zero eigenvector of D^{-1}A - I
        raise NumericError("Laplacian spectrum is missing its zero eigenvalue")
    return EigenSystem(np.clip(vals, -2.0, 0.0), source)


@dataclass(frozen=True)
class SpectralMeasure:
    """Probability measure on [-2, 0] with mean -1: its kind and its
    quadrature rule, with no parameters and no serialized form.

    For kind="discrete" the nodes/weights are the atoms themselves and
    integration is exact.  For analytic limit kinds the rule integrates
    smooth functions to at least ~1e-8 (machine precision in practice).
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, h) -> float:
        values = np.asarray(h(self.nodes), dtype=float)
        if not np.all(np.isfinite(values)):
            raise NumericError(f"integrand returned non-finite values on the support of {self.kind}")
        return float(self.weights @ values)

    def mean(self) -> float:
        return self.integrate(lambda lam: lam)

    def variance(self) -> float:
        return self.integrate(lambda lam: (lam + 1.0) ** 2)


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


def empirical_measure(g: Graph, es: EigenSystem | None = None) -> SpectralMeasure:
    """Empirical eigenvalue distribution of the graph Laplacian: weight 1/n
    on each eigenvalue, in ascending order.

    Restricted to regular graphs without isolated vertices so that the
    Laplacian is symmetric.  Post-checks: mean is -1 and the variance
    equals 1/degree to 1e-10 (a trace identity of regular graphs).
    Passing an already-computed eigensystem skips the decomposition.
    """
    if not g.is_regular:
        raise DomainError("empirical_measure needs a regular graph (symmetric Laplacian)")
    if es is None:
        es = laplacian_eigensystem(g)
    vals = np.sort(es.eigenvalues)
    mu = _validate_measure(SpectralMeasure("discrete", vals, np.full(vals.size, 1.0 / vals.size)))
    degree = int(g.degrees[0])
    var = mu.variance()
    if abs(var - 1.0 / degree) > 1e-10:
        raise NumericError(
            f"empirical measure variance {var!r} deviates from 1/degree = {1.0 / degree!r}"
        )
    return mu


@functools.cache
def _leggauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre rule (nodes, weights) on [-1, 1], built on
    first use per m.  Every caller shares the cached arrays, so they are
    read-only."""
    x, w = leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _cosine_rule() -> tuple[np.ndarray, np.ndarray]:
    """COS_RULE_NODES-point quadrature for the law of cos(2*pi*U), U uniform
    on [0, 1].

    Integrating in u instead of in the value avoids the inverse-square-root
    endpoint singularities of the arcsine density.
    """
    x, w = _leggauss(COS_RULE_NODES)
    return np.cos(2.0 * np.pi * (0.5 * (x + 1.0))), 0.5 * w


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
    off = np.sqrt(beta[1:])
    nodes, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
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
    x, w = _leggauss(KESTEN_MCKAY_NODES)
    theta = 0.5 * np.pi * x
    w = 0.5 * np.pi * w
    s, density_dtheta = _kesten_mckay_density(d, theta)
    return s - 1.0, w * density_dtheta


def _kesten_mckay_density(d: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1 + lam, the Kesten-McKay density in theta) at 1 + lam = R*sin(theta)."""
    r = 2.0 * np.sqrt(d - 1.0) / d
    s = r * np.sin(theta)
    return s, (r * np.sqrt(d - 1.0) / np.pi) * np.cos(theta) ** 2 / (1.0 - s**2)


#: Limit-measure kind -> (its alias in KIND[:D] specs, the least d it takes
#: or None for a kind without d, its quadrature rule as a function of d).
#: torus_limit at d = 1 is the cycle limit, node for node.
_LIMITS = {
    "dirac_minus_one": ("dirac", None, lambda d: (np.array([-1.0]), np.array([1.0]))),
    "cycle_limit": ("cycle", None, lambda d: _torus_rule(1)),
    "torus_limit": ("torus", 1, _torus_rule),
    "kesten_mckay": ("km", 3, _kesten_mckay_rule),
}


def measure_spec(text: str) -> tuple[str, int | None]:
    """(kind, d) of a limit-measure spec KIND[:D], as limit_measure takes
    them: KIND is a kind or its alias (dirac, cycle, torus, km), and only
    torus_limit and kesten_mckay take an integer D."""
    kind, _, rest = text.partition(":")
    kind = next((k for k, (alias, _, _) in _LIMITS.items() if alias == kind), kind)
    if kind not in _LIMITS:
        raise ParameterError(f"unknown measure kind {kind!r}")
    if rest and _LIMITS[kind][1] is None:
        raise ParameterError(f"malformed measure spec {text!r}: {kind} takes no argument")
    try:
        return kind, int(rest) if rest else None
    except ValueError as exc:
        raise ParameterError(f"malformed measure spec {text!r}") from exc


def limit_measure(kind: str, d: int | None = None) -> SpectralMeasure:
    """Analytic limit measures: 'dirac_minus_one', 'cycle_limit',
    'torus_limit' (d >= 1), 'kesten_mckay' (d >= 3; d = 2 is the cycle
    limit).  d goes straight to the kind's rule, as an int (None for a
    kind without d); a d that is not an integer, or is a bool, or any d
    given to a kind without one, raises ParameterError."""
    if not isinstance(kind, str) or kind not in _LIMITS:
        raise ParameterError(f"unknown limit measure kind {kind!r}")
    _, least, rule = _LIMITS[kind]
    if least is None and d is not None:
        raise ParameterError(f"{kind} takes no d, got {d!r}")
    if least is not None and (isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < least):
        raise ParameterError(f"{kind} needs an integer d >= {least}, got {d!r}")
    return _validate_measure(SpectralMeasure(kind, *rule(None if least is None else int(d))))


def kesten_mckay_cdf(d: int, points: np.ndarray) -> np.ndarray:
    """CDF of the Kesten-McKay Laplacian law evaluated at the given points."""
    r = 2.0 * np.sqrt(d - 1.0) / d
    x, w = _leggauss(KESTEN_MCKAY_NODES)

    def mass_below(theta_hi: float) -> float:
        lo = -0.5 * np.pi
        theta = 0.5 * (theta_hi - lo) * x + 0.5 * (theta_hi + lo)
        scale = 0.5 * (theta_hi - lo)
        return float(scale * (w @ _kesten_mckay_density(d, theta)[1]))

    z = (np.atleast_1d(np.asarray(points, dtype=float)) + 1.0) / r
    return np.array([0.0 if zi <= -1.0 else 1.0 if zi >= 1.0 else mass_below(float(np.arcsin(zi))) for zi in z])


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
