import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from graphflock import spectral
from graphflock.errors import DomainError, NumericError, ParameterError
from graphflock.graphs import Graph, complete, cycle, edge_list_graph, random_regular, torus
from graphflock.spectral import (
    EigenSystem,
    empirical_measure,
    eigendecompose,
    kesten_mckay_cdf,
    ks_distance,
    laplacian,
    laplacian_eigensystem,
    limit_measure,
    measure_spec,
)

ANALYTIC_KINDS = [
    ("dirac_minus_one", None),
    ("cycle_limit", None),
    ("torus_limit", 2),
    ("torus_limit", 4),
    ("kesten_mckay", 3),
]


class TestLaplacian:
    def test_complete_3(self):
        lap = laplacian(complete(3))
        assert np.allclose(np.diag(lap), -1.0)
        off = lap[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.5)

    def test_single_edge(self):
        lap = laplacian(complete(2))
        assert np.allclose(lap, [[-1.0, 1.0], [1.0, -1.0]])

    def test_isolated_vertex_named(self):
        g = edge_list_graph([(1, 2)], n=3)
        with pytest.raises(DomainError, match="vertex 2"):
            laplacian(g)

    def test_regular_row_sums_and_diagonal(self):
        lap = laplacian(torus(3, 2))
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-14)
        assert np.allclose(np.diag(lap), -1.0)
        assert np.allclose(lap, lap.T)


class TestEigendecompose:
    def test_cycle4_spectrum(self):
        es = laplacian_eigensystem(cycle(4))
        assert np.allclose(es.eigenvalues, [-2.0, -1.0, -1.0, 0.0], atol=1e-12)

    def test_complete5_spectrum(self):
        es = laplacian_eigensystem(complete(5))
        assert np.allclose(es.eigenvalues, [-1.25] * 4 + [0.0], atol=1e-12)

    def test_torus_3_2_spectrum(self):
        # substitute k_i in {1,2,3} into (cos(2 pi k1/3) + cos(2 pi k2/3))/2 - 1
        es = laplacian_eigensystem(torus(3, 2))
        expected = sorted(
            (np.cos(2 * np.pi * k1 / 3) + np.cos(2 * np.pi * k2 / 3)) / 2 - 1
            for k1 in range(1, 4)
            for k2 in range(1, 4)
        )
        assert np.allclose(es.eigenvalues, expected, atol=1e-12)
        assert np.allclose(sorted(es.eigenvalues), [-1.5] * 4 + [-0.75] * 4 + [0.0], atol=1e-12)

    def test_zero_matrix(self):
        es = eigendecompose(np.zeros((4, 4)))
        assert np.allclose(es.eigenvalues, 0.0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(DomainError):
            eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_reconstruction_residual(self):
        for g in (cycle(50), torus(4, 2), complete(7), random_regular(60, 3, seed=2)):
            es = laplacian_eigensystem(g)
            residual = np.abs(es.reconstruct() - laplacian(g)).max()
            assert residual <= 1e-9

    def test_orthonormal_basis(self):
        for g in (cycle(12), torus(3, 2), complete(6), random_regular(20, 3, seed=4)):
            es = laplacian_eigensystem(g)
            gram = es.eigenvectors.T @ es.eigenvectors
            assert np.abs(gram - np.eye(g.n)).max() < 1e-12

    def test_eigendecompose_reconstructs_its_matrix(self):
        a = np.random.default_rng(3).normal(size=(30, 30))
        m = a + a.T
        es = eigendecompose(m)
        assert np.abs(es.reconstruct() - m).max() <= 1e-12
        assert np.abs(es.eigenvectors.T @ es.eigenvectors - np.eye(30)).max() < 1e-12

    def test_source_matrix_dropped_once_vectors_exist(self):
        m = laplacian(random_regular(20, 3, seed=4))
        source = weakref.ref(m)
        es = eigendecompose(m)
        del m
        gc.collect()
        assert source() is not None  # kept until the eigenvectors are read
        es.eigenvectors
        gc.collect()
        assert source() is None

    def test_symmetry_gate_holds_one_temporary(self):
        # One 600 x 600 float array is 2.75 MiB; the gate's m - m.T is the one
        # such array eigendecompose may allocate.
        n = 600
        a = np.random.default_rng(5).normal(size=(n, n))
        m = a + a.T
        tracemalloc.start()
        try:
            eigendecompose(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m.nbytes

    def test_symmetry_gate_scale_is_largest_magnitude(self):
        # A skew of 1e-9 passes only against the -1e4 entry's scale.
        m = np.array([[-1e4, 1.0], [1.0 + 1e-9, 0.5]])
        assert eigendecompose(m).n == 2
        with pytest.raises(DomainError):
            eigendecompose(m + np.diag([1e4 - 1.0, 0.0]))

    def test_spectrum_disagreeing_with_matrix_raises(self):
        es = EigenSystem(np.array([0.0, 1.0]), np.zeros((2, 2)))
        with pytest.raises(NumericError, match="stored eigenvalues"):
            es.eigenvectors

    def test_eigenspaces_group_equal_eigenvalues(self):
        # cycle(6): -2, then -3/2 and -1/2 twice each, then 0.
        assert laplacian_eigensystem(cycle(6)).eigenspaces().tolist() == [0, 1, 3, 5]
        assert laplacian_eigensystem(complete(5)).eigenspaces().tolist() == [0, 4]

    def test_zero_eigenvector_constant_when_connected(self):
        es = laplacian_eigensystem(cycle(9))
        v = es.eigenvectors[:, -1]  # eigenvalue 0 is last in ascending order
        assert abs(es.eigenvalues[-1]) < 1e-12
        assert np.allclose(np.abs(v), 1.0 / np.sqrt(9), atol=1e-10)

    @pytest.mark.parametrize(("n", "d"), [(1000, 3), (200, 8)])
    def test_matches_scipy_syevd(self, n, d):
        g = random_regular(n, d, seed=1)
        expected = scipy.linalg.eigh(laplacian(g), eigvals_only=True, driver="evd")
        assert np.abs(laplacian_eigensystem(g).eigenvalues - expected).max() <= 1e-14

    def test_trace_identity(self):
        for g in (cycle(7), torus(3, 2), random_regular(14, 3, seed=1)):
            es = laplacian_eigensystem(g)
            assert abs(es.eigenvalues.sum() + g.n) < 1e-10


def _refuse(*args, **kwargs):
    raise AssertionError("no eigensolver may run for this graph")


class TestClosedFormSpectra:
    @pytest.mark.parametrize(
        "build,args",
        [(cycle, (n,)) for n in (3, 4, 7, 1000, 2000)]
        + [(torus, sd) for sd in ((3, 1), (4, 2), (5, 3), (32, 2))]
        + [(complete, (n,)) for n in (2, 3, 600, 2000)],
        ids=lambda v: v.__name__ if callable(v) else ",".join(map(str, v)),
    )
    def test_matches_eigvalsh(self, build, args, monkeypatch):
        g = build(*args)
        expected = np.linalg.eigvalsh(laplacian(g))
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
        monkeypatch.setattr(np.linalg, "eigh", _refuse)
        monkeypatch.setattr(scipy.linalg, "eigh", _refuse)
        es = laplacian_eigensystem(g)
        assert np.all(np.diff(es.eigenvalues) >= 0.0)
        assert np.abs(es.eigenvalues - expected).max() <= 1e-12

    def test_mislabelled_graph_takes_the_eigensolver(self):
        # two triangles recorded as a 6-cycle: same n, same degrees
        triangles = edge_list_graph([(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)])
        g = Graph(6, triangles.indptr, triangles.indices, "cycle", {"n": 6})
        es = laplacian_eigensystem(g)
        assert np.allclose(es.eigenvalues, [-1.5] * 4 + [0.0] * 2, atol=1e-12)


class TestEmpiricalMeasure:
    def test_complete5_atoms(self):
        mu = empirical_measure(complete(5))
        assert np.allclose(sorted(set(np.round(mu.nodes, 12))), [-1.25, 0.0])
        assert abs(mu.variance() - 0.25) < 1e-10

    def test_cycle4_atoms(self):
        mu = empirical_measure(cycle(4))
        atoms = dict(zip(np.round(mu.nodes, 12), mu.weights))
        assert atoms == {-2.0: 0.25, -1.0: 0.25, 0.0: 0.25} or np.allclose(
            sorted(mu.nodes), [-2, -1, -1, 0]
        )
        assert abs(mu.variance() - 0.5) < 1e-10

    def test_k2_atoms(self):
        mu = empirical_measure(complete(2))
        assert np.allclose(sorted(mu.nodes), [-2.0, 0.0])
        assert np.allclose(mu.weights, 0.5)

    def test_complete_measure_exact_form(self):
        n = 9
        mu = empirical_measure(complete(n))
        assert np.isclose(mu.weights[np.isclose(mu.nodes, 0.0)].sum(), 1 / n)
        assert np.isclose(mu.weights[np.isclose(mu.nodes, -n / (n - 1))].sum(), (n - 1) / n)

    def test_variance_is_reciprocal_degree(self):
        for g in (torus(5, 2), cycle(30), random_regular(40, 4, seed=8)):
            mu = empirical_measure(g)
            assert abs(mu.variance() - 1.0 / g.degrees[0]) < 1e-10
            assert abs(mu.mean() + 1.0) < 1e-10

    def test_rejects_irregular(self):
        g = edge_list_graph([(1, 2), (2, 3)])
        with pytest.raises(DomainError):
            empirical_measure(g)


class TestLegendreRule:
    @pytest.mark.parametrize("m", [64, 256])
    def test_integrates_monomials_below_degree_2m(self, m):
        # numpy's rule is off by 2.2e-15 (m = 64) and 3.6e-15 (m = 256); scipy's
        # roots_legendre by 4.6e-15 and 4.1e-14.
        x, w = spectral._leggauss(m)
        k = np.arange(2 * m)
        exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        assert np.abs(w @ x[:, None] ** k - exact).max() < 1e-14

    def test_cached_arrays_are_read_only(self):
        x, w = spectral._leggauss(8)
        for array in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert spectral._leggauss(8)[0] is x


class TestLimitMeasures:
    @pytest.mark.parametrize("kind,d", ANALYTIC_KINDS)
    def test_mass_mean_support(self, kind, d):
        mu = limit_measure(kind, d=d)
        assert abs(mu.integrate(lambda lam: np.ones_like(lam)) - 1.0) < 1e-10
        assert abs(mu.integrate(lambda lam: lam) + 1.0) < 1e-8
        assert mu.nodes.min() >= -2.0 - 1e-9 and mu.nodes.max() <= 1e-9

    def test_dirac(self):
        mu = limit_measure("dirac_minus_one")
        assert mu.nodes.tolist() == [-1.0] and mu.weights.tolist() == [1.0]
        assert (mu.mean(), mu.variance()) == (-1.0, 0.0)

    def test_cycle_limit_moments(self):
        mu = limit_measure("cycle_limit")
        mean, var = mu.mean(), mu.variance()
        assert abs(mean + 1.0) < 1e-12
        assert abs(var - 0.5) < 1e-12  # E[cos^2] = 1/2

    def test_torus_variance_reciprocal_degree(self):
        for d in (1, 2, 3, 4, 6):
            mu = limit_measure("torus_limit", d=d)
            assert abs(mu.variance() - 1.0 / (2 * d)) < 1e-10

    def test_torus_1_matches_cycle_limit(self):
        t1 = limit_measure("torus_limit", d=1)
        c = limit_measure("cycle_limit")
        for x in (0.3, 2.0):
            a = t1.integrate(lambda lam: np.log1p(-x * lam))
            b = c.integrate(lambda lam: np.log1p(-x * lam))
            assert abs(a - b) < 1e-12

    def test_torus_2_convolution_matches_direct_tensor(self):
        # independent oracle: raw 64x64 tensor rule, no compression
        from scipy.special import roots_legendre

        u, w = roots_legendre(64)
        u, w = 0.5 * (u + 1), 0.5 * w
        cos_vals = np.cos(2 * np.pi * u)
        lam = (cos_vals[:, None] + cos_vals[None, :]).ravel() / 2 - 1
        wt = (w[:, None] * w[None, :]).ravel()
        mu = limit_measure("torus_limit", d=2)
        for x in (0.5, 1.0, 5.0):
            direct = wt @ np.log1p(-x * lam)
            compressed = mu.integrate(lambda v: np.log1p(-x * v))
            assert abs(direct - compressed) < 1e-12

    def test_compressed_rule_keeps_the_atoms_moments(self):
        # Stage 2 of the torus rule: 64 nodes must match the 64 x 64 tensored
        # cosine atoms, here in lam + 1 = (cos + cos) / 2, below degree 128.
        c, cw = spectral._cosine_rule()
        atoms, atom_weights = ((c[:, None] + c[None, :]) / 2).ravel(), (cw[:, None] * cw[None, :]).ravel()
        nodes, weights = spectral._gauss_rule_from_atoms(atoms, atom_weights, 64)
        k = np.arange(128)[:, None]
        assert np.abs((nodes**k) @ weights - (atoms**k) @ atom_weights).max() < 1e-14

    def test_corrupted_compression_stage_raises(self, monkeypatch):
        gauss_rule = spectral._gauss_rule_from_atoms

        def shifted(values, weights, n_nodes):
            nodes, rule_weights = gauss_rule(values, weights, n_nodes)
            nodes = nodes.copy()
            nodes[n_nodes // 2] += 0.05
            return nodes, rule_weights

        monkeypatch.setattr(spectral, "_gauss_rule_from_atoms", shifted)
        with pytest.raises(NumericError, match="compressed"):
            limit_measure("torus_limit", d=3)

    def test_kesten_mckay_support(self):
        mu = limit_measure("kesten_mckay", d=3)
        radius = 2 * np.sqrt(2) / 3
        assert np.all(np.abs(1 + mu.nodes) <= radius + 1e-12)
        assert abs(np.abs(1 + mu.nodes).max() - radius) < 0.05  # nodes reach the edge

    def test_kesten_mckay_moments(self):
        mu = limit_measure("kesten_mckay", d=3)
        mean, var = mu.mean(), mu.variance()
        assert abs(mean + 1.0) < 1e-10
        assert abs(var - 1.0 / 3.0) < 1e-10

    @pytest.mark.parametrize(
        "kind,d",
        [
            ("torus_limit", 0),
            ("kesten_mckay", 2),
            ("nonsense", None),
            # Not an integer: each was once truncated to a rule, or raised TypeError.
            ("torus_limit", 2.5),
            ("torus_limit", True),
            ("kesten_mckay", 3.9),
            ("torus_limit", "2"),
            # A d for a kind that takes none: each was once ignored.
            ("cycle_limit", 5),
            ("dirac_minus_one", "junk"),
        ],
    )
    def test_parameter_errors(self, kind, d):
        with pytest.raises(ParameterError):
            limit_measure(kind, d=d)

    def test_numpy_integer_d_is_taken(self):
        mu, expected = limit_measure("torus_limit", d=np.int64(2)), limit_measure("torus_limit", d=2)
        assert np.array_equal(mu.nodes, expected.nodes) and np.array_equal(mu.weights, expected.weights)

    @pytest.mark.parametrize(
        "text,spec",
        [
            ("dirac", ("dirac_minus_one", None)),
            ("cycle_limit", ("cycle_limit", None)),
            ("torus:2", ("torus_limit", 2)),
            ("km:3", ("kesten_mckay", 3)),
            ("kesten_mckay:5", ("kesten_mckay", 5)),
        ],
    )
    def test_measure_spec(self, text, spec):
        assert measure_spec(text) == spec

    @pytest.mark.parametrize("text", ["dirac:7", "cycle:5", "torus:x", "moebius", "km:3,2"])
    def test_malformed_measure_spec(self, text):
        with pytest.raises(ParameterError):
            measure_spec(text)

    def test_integrate_rejects_nonfinite(self):
        mu = limit_measure("cycle_limit")
        with pytest.raises(NumericError):
            mu.integrate(lambda lam: np.full_like(lam, np.inf))


class TestKestenMcKayLaw:
    def test_cdf_monotone_and_normalized(self):
        pts = np.linspace(-2.0, 0.0, 41)
        cdf = kesten_mckay_cdf(3, pts)
        assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) < 1e-10
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_ks_distance_small_graph(self):
        mu = empirical_measure(random_regular(200, 3, seed=0))
        dist = ks_distance(mu, lambda pts: kesten_mckay_cdf(3, pts))
        assert dist < 0.25

    def test_ks_needs_discrete(self):
        with pytest.raises(ParameterError):
            ks_distance(limit_measure("cycle_limit"), lambda pts: kesten_mckay_cdf(3, pts))
