import numpy as np
import pytest

from graphflock import spectral
from graphflock.errors import DomainError, NumericError, ParameterError
from graphflock.graphs import complete, cycle, edge_list_graph, random_regular, torus
from graphflock.spectral import (
    empirical_measure,
    eigendecompose,
    integrate,
    kesten_mckay_cdf,
    ks_distance,
    laplacian,
    laplacian_eigensystem,
    limit_measure,
    measure_from_dict,
    measure_moments,
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
        for g in (cycle(50), torus(4, 2), random_regular(60, 3, seed=2)):
            es = laplacian_eigensystem(g)
            residual = np.abs(es.reconstruct() - laplacian(g)).max()
            assert residual <= 1e-9

    def test_orthonormal_basis(self):
        es = laplacian_eigensystem(cycle(12))
        gram = es.eigenvectors.T @ es.eigenvectors
        assert np.abs(gram - np.eye(12)).max() < 1e-12

    def test_zero_eigenvector_constant_when_connected(self):
        es = laplacian_eigensystem(cycle(9))
        v = es.eigenvectors[:, -1]  # eigenvalue 0 is last in ascending order
        assert abs(es.eigenvalues[-1]) < 1e-12
        assert np.allclose(np.abs(v), 1.0 / np.sqrt(9), atol=1e-10)

    def test_trace_identity(self):
        for g in (cycle(7), torus(3, 2), random_regular(14, 3, seed=1)):
            es = laplacian_eigensystem(g)
            assert abs(es.eigenvalues.sum() + g.n) < 1e-10


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


class TestLimitMeasures:
    @pytest.mark.parametrize("kind,d", ANALYTIC_KINDS)
    def test_mass_mean_support(self, kind, d):
        mu = limit_measure(kind, d=d)
        assert abs(integrate(mu, lambda lam: np.ones_like(lam)) - 1.0) < 1e-10
        assert abs(integrate(mu, lambda lam: lam) + 1.0) < 1e-8
        assert mu.nodes.min() >= -2.0 - 1e-9 and mu.nodes.max() <= 1e-9

    def test_dirac(self):
        mu = limit_measure("dirac_minus_one")
        assert mu.nodes.tolist() == [-1.0] and mu.weights.tolist() == [1.0]
        assert measure_moments(mu) == (-1.0, 0.0)

    def test_cycle_limit_moments(self):
        mu = limit_measure("cycle_limit")
        mean, var = measure_moments(mu)
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
            a = integrate(t1, lambda lam: np.log1p(-x * lam))
            b = integrate(c, lambda lam: np.log1p(-x * lam))
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
            compressed = integrate(mu, lambda v: np.log1p(-x * v))
            assert abs(direct - compressed) < 1e-12

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
        mean, var = measure_moments(limit_measure("kesten_mckay", d=3))
        assert abs(mean + 1.0) < 1e-10
        assert abs(var - 1.0 / 3.0) < 1e-10

    @pytest.mark.parametrize(
        "kind,d", [("torus_limit", 0), ("kesten_mckay", 2), ("nonsense", None)]
    )
    def test_parameter_errors(self, kind, d):
        with pytest.raises(ParameterError):
            limit_measure(kind, d=d)

    def test_integrate_rejects_nonfinite(self):
        mu = limit_measure("cycle_limit")
        with pytest.raises(NumericError):
            integrate(mu, lambda lam: np.full_like(lam, np.inf))

    def test_serialization_roundtrip(self):
        for mu in (empirical_measure(cycle(6)), limit_measure("torus_limit", d=2)):
            clone = measure_from_dict(mu.to_dict())
            for x in (0.2, 1.7):
                a = integrate(mu, lambda lam: -lam / (1 - x * lam))
                b = integrate(clone, lambda lam: -lam / (1 - x * lam))
                assert abs(a - b) < 1e-12


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
