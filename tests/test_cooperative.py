import math

import numpy as np
import pytest

from graphflock.cooperative import (
    coop_feedback_eigenvalues,
    coop_feedback_matrix,
    coop_h,
    coop_h_logdet,
    coop_kernel,
    coop_profile,
    coop_value,
    coop_value_measure,
    coop_variance,
    coop_variance_measure,
)
from graphflock.equilibrium import build_kernel, game_value, player_variance
from graphflock.errors import ParameterError
from graphflock.graphs import complete, cycle, edge_list_graph, erdos_renyi, random_regular, torus
from graphflock.spectral import empirical_measure, limit_measure
from graphflock.strategies import alignment_functionals, profile_costs


def exact_variance(k, t):
    """Closed-form s-integral oracle, per eigenvalue of the Gram matrix."""
    total = 0.0
    for nu in k.eigen.eigenvalues:
        if nu < 1e-14:
            total += t
        else:
            num = 1.0 + k.c * (k.T - t) * nu
            integral = (1.0 / (k.c * nu)) * (1.0 / num - 1.0 / (1.0 + k.c * k.T * nu))
            total += num**2 * integral
    return k.sigma**2 * total / k.n


class TestKernel:
    def test_terminal_condition(self):
        g = complete(2)
        k = coop_kernel(g, 1.0, 1.0, 1.0)
        gram = alignment_functionals(g).T @ alignment_functionals(g)
        assert np.abs(coop_feedback_matrix(k, 1.0) - 1.0 * gram).max() <= 1e-9

    def test_k2_eigenvalue_at_zero(self):
        k = coop_kernel(complete(2), 1.0, 1.0, 1.0)
        vals = sorted(coop_feedback_eigenvalues(k, 0.0))
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[1] == pytest.approx(0.8, abs=1e-12)  # 4 / (1 + 4)

    def test_zero_mode_stays_zero(self):
        k = coop_kernel(cycle(6), 2.0, 1.5, 1.0)
        for t in (0.0, 0.7, 1.5):
            assert coop_feedback_eigenvalues(k, t).min() == pytest.approx(0.0, abs=1e-12)

    def test_feedback_psd(self):
        k = coop_kernel(torus(3, 2), 1.0, 1.0, 1.0)
        for t in (0.0, 0.5, 1.0):
            assert np.linalg.eigvalsh(coop_feedback_matrix(k, t)).min() >= -1e-12

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            coop_kernel(cycle(4), -1.0, 1.0, 1.0)
        k = coop_kernel(cycle(4), 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            coop_variance(k, 2.0)


class TestSquaredLaplacianSpectrum:
    @pytest.mark.parametrize(
        "g", [cycle(12), torus(4, 2), complete(9), random_regular(30, 3, seed=2), random_regular(40, 8, seed=5)],
        ids=["cycle", "torus", "complete", "rr3", "rr8"],
    )
    def test_matches_eigvalsh_of_gram(self, g):
        k = coop_kernel(g, 1.0, 1.0, 1.0)
        gram = alignment_functionals(g).T @ alignment_functionals(g)
        assert np.abs(k.eigen.eigenvalues - np.linalg.eigvalsh(gram)).max() <= 1e-12
        assert np.abs(k.eigen.reconstruct() - gram).max() <= 1e-12

    def test_irregular_graph_keeps_the_gram_route(self):
        g = erdos_renyi(30, 0.2, seed=4)
        assert not g.is_regular
        gram = alignment_functionals(g).T @ alignment_functionals(g)
        k = coop_kernel(g, 1.0, 1.0, 1.0)
        assert np.abs(k.eigen.eigenvalues - np.clip(np.linalg.eigvalsh(gram), 0.0, None)).max() <= 1e-12

    def test_profile_reads_the_kernels_laplacian_spectrum(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        g = random_regular(100, 3, seed=1)
        prof = coop_profile(coop_kernel(g, 1.0, 1.0, 1.0))
        assert calls == [(100, 100)]
        lam = prof.eigen.eigenvalues
        assert np.array_equal(prof.rates(0.5, lam), prof.rates(np.array([0.5]), lam)[0])


class TestValue:
    def test_cycle4_exact(self):
        k = coop_kernel(cycle(4), 1.0, 1.0, 1.0)
        expected = (2 * math.log(2.0) + math.log(5.0)) / 8.0
        assert coop_value(k) == pytest.approx(expected, abs=1e-9)

    def test_matches_h_at_zero(self):
        k = coop_kernel(torus(3, 2), 1.3, 0.7, 1.1)
        assert coop_value(k) == pytest.approx(coop_h(k, 0.0) / k.n, abs=1e-12)

    def test_vanishing_horizon(self):
        k = coop_kernel(cycle(5), 1.0, 1e-9, 1.0)
        assert abs(coop_value(k)) < 1e-8

    def test_dense_limit_approaches_half_log2(self):
        k = coop_kernel(complete(400), 1.0, 1.0, 1.0)
        # eigenvalues of L^T L concentrate at 1, so the value -> (1/2) log 2
        assert coop_value(k) == pytest.approx(0.5 * math.log(2.0), abs=0.01)

    def test_nonzero_start(self):
        k = coop_kernel(cycle(4), 1.0, 1.0, 1.0)
        x0 = np.array([1.0, -1.0, 1.0, -1.0])
        assert coop_value(k, x0) > coop_value(k)


class TestNoiseTerm:
    def test_determinant_identity(self):
        for g in (cycle(6), complete(5), edge_list_graph([(1, 2), (2, 3), (3, 4)])):
            k = coop_kernel(g, 1.2, 0.9, 1.4)
            for t in (0.0, 0.45, 0.9):
                assert coop_h(k, t) == pytest.approx(coop_h_logdet(k, t), abs=1e-9)


class TestVariance:
    def test_zero_at_zero(self):
        k = coop_kernel(cycle(4), 1.0, 1.0, 1.0)
        assert coop_variance(k, 0.0) == 0.0

    def test_simpson_matches_closed_form(self):
        for g in (cycle(4), torus(3, 2), complete(2)):
            k = coop_kernel(g, 1.0, 1.0, 1.0)
            for t in (0.3, 1.0):
                assert coop_variance(k, t) == pytest.approx(exact_variance(k, t), abs=1e-9)

    def test_zero_gram_mode_contributes_sigma2_t(self):
        # cycle has one zero eigenvalue of L^T L; its share of the average is
        # sigma^2 t / n, visible in the closed form used as oracle
        k = coop_kernel(cycle(4), 1.0, 1.0, 2.0)
        assert exact_variance(k, 0.5) > 2.0**2 * 0.5 / 4

    def test_cooperative_below_competitive_cycle100(self):
        g = cycle(100)
        ck = coop_kernel(g, 1.0, 1.0, 1.0)
        ek = build_kernel(g, 1.0, 1.0, 1.0)
        t = 0.5
        coop = coop_variance(ck, t)
        comp = player_variance(ek, t)
        assert coop < comp
        # regression values, frozen after first computation
        assert coop == pytest.approx(0.392216, abs=2e-4)
        assert comp == pytest.approx(0.404969, abs=2e-4)


class TestAgainstStrategyEvaluation:
    @pytest.mark.parametrize("g", [complete(2), cycle(6)])
    def test_policy_evaluation_matches_closed_form(self, g):
        c, T, sigma = 1.0, 1.0, 1.0
        k = coop_kernel(g, c, T, sigma)
        prof = coop_profile(k)
        costs = profile_costs(g, prof, sigma=sigma, c=c, steps=2000)
        assert costs.mean() == pytest.approx(coop_value(k), abs=1e-9)

    @pytest.mark.parametrize(
        "g", [complete(5), complete(10), cycle(6), cycle(20), torus(3, 2), complete(2)]
    )
    def test_planner_beats_equilibrium_on_average(self, g):
        ck = coop_kernel(g, 1.0, 1.0, 1.0)
        ek = build_kernel(g, 1.0, 1.0, 1.0)
        assert coop_value(ck) <= game_value(ek) + 1e-12


class TestMeasureVariants:
    def test_value_measure_matches_finite_graph(self):
        mu = limit_measure("cycle_limit")
        finite = coop_value(coop_kernel(cycle(400), 1.0, 1.0, 1.0))
        assert coop_value_measure(mu, 1.0, 1.0, 1.0) == pytest.approx(finite, abs=1e-3)

    def test_variance_measure_matches_finite_graph(self):
        mu = limit_measure("cycle_limit")
        own = empirical_measure(cycle(400))
        k = coop_kernel(cycle(400), 1.0, 1.0, 1.0)
        for t in (0.4, 1.0):
            assert coop_variance_measure(mu, 1.0, 1.0, 1.0, t) == pytest.approx(
                coop_variance(k, t), abs=1e-3
            )
            # The kernel is the push-forward of its own spectrum through lam^2.
            assert coop_variance_measure(own, 1.0, 1.0, 1.0, t) == pytest.approx(
                coop_variance(k, t), abs=1e-13
            )

    @pytest.mark.parametrize("c", [0.5, 1.0, 5.0, 100.0])
    @pytest.mark.parametrize("kind", ["cycle_limit", "dirac_minus_one"])
    def test_variance_measure_matches_gauss_legendre_in_time(self, kind, c):
        # int (1 + c(T-t) nu)^2 int_0^t (1 + c(T-s) nu)^-2 ds dmu with a
        # 200-node Gauss-Legendre rule in s, nu = lam^2, T = sigma = 1.
        mu = limit_measure(kind)
        nu = mu.nodes**2
        x, w = np.polynomial.legendre.leggauss(200)
        ts = np.linspace(0.0, 1.0, 41)
        expected = []
        for t in ts:
            s = 0.5 * t * (x + 1.0)
            inner = (0.5 * t * w) @ (1.0 + c * np.outer(1.0 - s, nu)) ** -2
            expected.append(mu.weights @ ((1.0 + c * (1.0 - t) * nu) ** 2 * inner))
        got = coop_variance_measure(mu, c, 1.0, 1.0, ts)
        assert np.abs(got - np.array(expected)).max() <= 1e-14

    def test_variance_measure_zero_at_zero(self):
        assert coop_variance_measure(limit_measure("cycle_limit"), 1.0, 1.0, 1.0, 0.0) == 0.0
