import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from graphflock.cooperative import coop_kernel, coop_variance
from graphflock.equilibrium import (
    build_kernel,
    covariance_bound,
    equilibrium_control,
    game_value,
    limit_value,
    limit_variance,
    p_eigenvalues,
    p_matrix,
    player_variance,
    riccati_residual,
    riccati_terminal_residual,
    state_law,
)
from graphflock.errors import DomainError, ParameterError
from graphflock.flow import FlockingSchedule, cycle_closed_form, q_eval, solve_f
from graphflock.graphs import complete, cycle, edge_list_graph, random_regular, torus
from graphflock.spectral import laplacian, limit_measure


def kernel(g, c=1.0, T=1.0, sigma=1.0):
    return build_kernel(g, c, T, sigma)


def regular_not_transitive():
    # K_4 disjoint from K_{3,3}: 3-regular but components of unequal size.
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(4 + a, 7 + b) for a in range(3) for b in range(3)]
    return edge_list_graph(edges, n=10, one_based=False)


class TestBuildKernel:
    def test_rejects_irregular(self):
        g = edge_list_graph([(1, 2), (2, 3)])
        with pytest.raises(DomainError):
            kernel(g)

    def test_rejects_isolated(self):
        g = edge_list_graph([(1, 2)], n=3)
        with pytest.raises(DomainError):
            kernel(g)

    def test_warns_when_transitivity_unknown(self):
        with pytest.warns(RuntimeWarning, match="walk-regular graphs, and riccati_residual tests them"):
            kernel(regular_not_transitive())

    def test_no_warning_for_known_transitive(self, recwarn):
        kernel(cycle(4))
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]

    def test_cycle4_kernel_spectrum(self):
        k = kernel(cycle(4))
        assert np.allclose(k.eigen.eigenvalues, [-2, -1, -1, 0], atol=1e-12)

    def test_k2_kernel_spectrum(self):
        k = kernel(complete(2))
        assert np.allclose(k.eigen.eigenvalues, [-2, 0], atol=1e-12)


class TestFeedbackMatrix:
    def test_terminal_is_minus_cl(self):
        for g, c in ((complete(5), 1.0), (cycle(6), 2.5)):
            k = kernel(g, c=c)
            residual = np.abs(p_matrix(k, k.T) + c * laplacian(g)).max()
            assert residual <= 1e-9

    def test_complete5_terminal_entries(self):
        # P(T) = -cL: diagonal 1, off-diagonal -1/4 (rows sum to zero so the
        # all-ones vector stays a zero eigenvector)
        k = kernel(complete(5))
        p_T = p_matrix(k, 1.0)
        assert np.allclose(np.diag(p_T), 1.0, atol=1e-12)
        assert np.allclose(p_T[~np.eye(5, dtype=bool)], -0.25, atol=1e-12)
        assert np.allclose(p_T.sum(axis=1), 0.0, atol=1e-12)

    def test_psd_and_zero_multiplicity(self):
        k = kernel(torus(3, 2))
        for t in (0.0, 0.3, 1.0):
            rho = p_eigenvalues(k, t)
            assert np.all(rho >= -1e-12)
            n_zero_p = int(np.sum(np.abs(rho) < 1e-12))
            n_zero_l = int(np.sum(np.abs(k.eigen.eigenvalues) < 1e-12))
            assert n_zero_p == n_zero_l == 1

    def test_a_table_of_times_peaks_at_two_tables(self):
        # One 201 x 20000 table of rates takes 30.7 MiB.  rhs's own tables of
        # that size must be freed before the quotient's table is made.
        k = kernel(cycle(20000))
        ts = np.linspace(0.0, 1.0, 201)
        tracemalloc.start()
        try:
            p_eigenvalues(k, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * ts.size * k.n * 8

    def test_rho_matches_schedule_formula(self):
        k = kernel(complete(5))
        f1 = k.schedule.value(1.0)
        fp1 = k.schedule.rhs(f1)
        rho = p_eigenvalues(k, 0.0)
        expected = fp1 * 1.25 / (1 + f1 * 1.25)
        assert rho[:-1] == pytest.approx([expected] * 4, abs=1e-12)

    def test_transitive_diagonal_constant(self):
        for g in (complete(5), torus(3, 2)):
            k = kernel(g)
            p = p_matrix(k, 0.4)
            diag = np.diag(p)
            assert np.abs(diag - np.trace(p) / g.n).max() < 1e-12

    def test_commutes_with_laplacian(self):
        k = kernel(cycle(8))
        lap = laplacian(cycle(8))
        p = p_matrix(k, 0.6)
        assert np.abs(p @ lap - lap @ p).max() <= 1e-10

    def test_time_range_checked(self):
        k = kernel(complete(3))
        with pytest.raises(ParameterError):
            p_matrix(k, 1.5)


class TestControls:
    def test_ones_vector_gives_zero(self):
        k = kernel(cycle(6))
        for i in (0, 3):
            assert abs(equilibrium_control(k, i, 0.5, np.ones(6))) < 1e-12

    def test_terminal_unit_vector(self):
        g = cycle(4)
        k = kernel(g, c=2.0)
        lap = laplacian(g)
        for i, j in ((0, 1), (2, 2), (1, 3)):
            e_j = np.eye(4)[j]
            assert equilibrium_control(k, i, 1.0, e_j) == pytest.approx(2.0 * lap[i, j], abs=1e-9)

    def test_small_complete_near_dense_limit(self):
        k = kernel(complete(3))
        x = np.array([1.0, 0.0, 0.0])
        dense = -1.0 / (1.0 + 1.0)  # -c x_1 / (1 + cT)
        assert abs(equilibrium_control(k, 0, 0.0, x) - dense) < 0.2

    def test_dimension_mismatch(self):
        k = kernel(complete(3))
        with pytest.raises(ParameterError):
            equilibrium_control(k, 0, 0.5, np.zeros(4))


class TestStateLaw:
    def test_time_zero(self):
        k = kernel(cycle(5))
        x0 = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        law = state_law(k, 0.0, x0)
        assert np.allclose(law.mean, x0, atol=1e-12)
        assert np.abs(law.covariance).max() == 0.0

    def test_zero_mode_variance_is_sigma2_t(self):
        k = kernel(cycle(5), sigma=1.7)
        law = state_law(k, 0.8)
        assert np.array_equal(law.mean, np.zeros(5))  # no x0: one zero mean per player
        ones = np.ones(5) / np.sqrt(5)
        assert ones @ law.covariance @ ones == pytest.approx(1.7**2 * 0.8, abs=1e-10)

    def test_mean_conservation(self):
        k = kernel(cycle(6))
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=6)
        for t in (0.2, 0.9):
            law = state_law(k, t, x0)
            assert law.mean.mean() == pytest.approx(x0.mean(), abs=1e-10)

    def test_dense_graph_variance_near_limit(self):
        k = kernel(complete(200))
        law = state_law(k, 1.0)
        dense = 1.0 * (1 + 0.0) / 2.0  # sigma^2 t (1 + c(T-t)) / (1 + cT)
        assert np.abs(np.diag(law.covariance) - dense).max() < 0.02

    def test_covariance_psd(self):
        k = kernel(torus(3, 2))
        law = state_law(k, 0.7)
        assert np.linalg.eigvalsh(law.covariance).min() >= -1e-9


class TestPlayerVariance:
    def test_zero_at_zero(self):
        assert player_variance(kernel(cycle(4)), 0.0) == 0.0

    def test_k2_against_adaptive_quadrature(self):
        k = kernel(complete(2))
        t = 0.65
        f_t = k.schedule.value(k.T - t)

        def integrand(s):
            return ((1 + 2 * f_t) / (1 + 2 * k.schedule.value(k.T - s))) ** 2

        lam_term = quad(integrand, 0.0, t, epsabs=1e-12)[0]
        expected = 0.5 * (t + lam_term)
        assert player_variance(k, t) == pytest.approx(expected, abs=1e-9)

    def test_complete500_midpoint(self):
        k = kernel(complete(500))
        assert player_variance(k, 0.5) == pytest.approx(0.375, abs=0.01)

    def test_matches_state_law_diagonal(self):
        k = kernel(torus(3, 2))
        law = state_law(k, 0.9)
        assert player_variance(k, 0.9) == pytest.approx(np.diag(law.covariance).mean(), abs=1e-12)

    @pytest.mark.parametrize("g", [cycle(50), complete(30), torus(4, 2)])
    def test_is_limit_variance_of_own_measure(self, g):
        k = kernel(g, c=1.5, sigma=1.3)
        for t in (0.0, 0.3, 1.0):
            expected = limit_variance(k.schedule, k.sigma, t)
            assert player_variance(k, t) == pytest.approx(expected, abs=1e-14)
            assert np.diag(state_law(k, t).covariance).mean() == pytest.approx(expected, abs=1e-12)


def dop853_variance(mu, c, ts, nodes=400):
    """sigma = T = 1 variance curve from a DOP853 schedule of f' = c*Q'(f)
    and a Gauss-Legendre rule in s on [0, t]: a reference made apart from
    solve_f and from the rule in u."""
    sol = solve_ivp(
        lambda _, y: [c * q_eval(mu, float(y[0]))[1]], (0.0, 1.0), [0.0],
        method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True,
    )
    x, w = np.polynomial.legendre.leggauss(nodes)
    curve = []
    for t in ts:
        f_s = sol.sol(1.0 - 0.5 * t * (x + 1.0))[0]
        inner = (1.0 - np.outer(mu.nodes, f_s)) ** -2 @ (0.5 * t * w)
        curve.append(mu.weights @ ((1.0 - sol.sol(1.0 - t)[0] * mu.nodes) ** 2 * inner))
    return np.array(curve)


class TestVarianceWalk:
    @pytest.mark.parametrize("c", [1.0, 5.0, 100.0])
    def test_curves_match_references(self, c):
        ts = np.linspace(0.0, 1.0, 101)
        mu = limit_measure("dirac_minus_one")
        a = c * (1.0 - ts)
        closed = (1.0 + a) ** 2 * (1.0 / (1.0 + a) - 1.0 / (1.0 + c)) / c
        assert np.abs(limit_variance(solve_f(mu, c, 1.0), 1.0, ts) - closed).max() <= 1e-13
        mu = limit_measure("cycle_limit")
        curve = limit_variance(solve_f(mu, c, 1.0), 1.0, ts)
        assert np.abs(curve - dop853_variance(mu, c, ts)).max() <= 1e-10

    @pytest.mark.parametrize("c", [1e4, 1e5, 1e6])
    def test_large_ct_curves_match_the_closed_form(self, c):
        # Near t = T the integrand bends at u = (cT)^-1/2, closer to the rule's
        # start than its mean node gap: the rule is then cut into graded pieces.
        ts = np.linspace(0.0, 1.0, 41)[1:]
        mu = limit_measure("dirac_minus_one")
        a = c * (1.0 - ts)
        closed = (1.0 + a) ** 2 * (1.0 / (1.0 + a) - 1.0 / (1.0 + c)) / c
        curve = limit_variance(solve_f(mu, c, 1.0), 1.0, ts)
        assert np.abs(curve / closed - 1.0).max() <= 1e-12
        assert curve[-1] == pytest.approx((1.0 - 1.0 / (1.0 + c)) / c, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("curve", ["player", "limit", "coop"])
    def test_order_and_repeats_of_times_do_not_matter(self, curve):
        k = kernel(cycle(30))
        mu = limit_measure("cycle_limit")
        variance = {
            "player": lambda ts: player_variance(k, ts),
            "limit": lambda ts: limit_variance(solve_f(mu, 1.0, 1.0), 1.0, ts),
            "coop": lambda ts: coop_variance(coop_kernel(cycle(30), 1.0, 1.0, 1.0), ts),
        }[curve]
        ts = np.linspace(0.0, 1.0, 21)
        rows = variance(ts)
        assert rows.shape == (21,) and rows[0] == 0.0
        assert np.array_equal(variance(ts[::-1]), rows[::-1])
        order = np.random.default_rng(3).permutation(ts.size)
        assert np.array_equal(variance(ts[order]), rows[order])
        assert np.array_equal(variance(np.repeat(ts, 3)), np.repeat(rows, 3))

    def test_zero_time_is_exactly_zero(self):
        k = kernel(cycle(12))
        assert player_variance(k, np.array([0.0, -1e-13, 0.5, 0.0]))[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0]
        assert player_variance(k, -1e-13) == 0.0
        assert np.array_equal(state_law(k, 0.0).covariance, np.zeros((12, 12)))

    def test_times_outside_the_horizon_rejected(self):
        k = kernel(cycle(12))
        for ts in (np.array([0.5, 1.5]), np.array([-0.1]), np.array([0.2, np.nan])):
            with pytest.raises(ParameterError):
                player_variance(k, ts)

    def test_state_law_diagonal_matches_curve(self):
        k = kernel(torus(3, 2))
        ts = np.linspace(0.0, 1.0, 11)
        for t, v in zip(ts, player_variance(k, ts)):
            assert np.diag(state_law(k, t).covariance).mean() == pytest.approx(v, abs=1e-12)

    def test_memory_does_not_grow_with_steps_times_n(self):
        # One 2001 x 1000 array of integrand values would take 15.3 MiB.
        g = cycle(1000)
        k, ck = kernel(g), coop_kernel(g, 1.0, 1.0, 1.0)
        tracemalloc.start()
        try:
            player_variance(k, 1.0)
            player_variance(k, np.linspace(0.0, 1.0, 26))
            coop_variance(ck, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_memory_does_not_grow_with_times_times_n(self):
        # One 1001 x 1000 array of J values would take 7.6 MiB.
        k = kernel(cycle(1000))
        tracemalloc.start()
        try:
            player_variance(k, np.linspace(0.0, 1.0, 101))
            player_variance(k, np.linspace(0.0, 1.0, 1001))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def gauss_reference(s, sigma, ts):
    """A variance curve with the schedule's 64-node rule built for each
    time on its own over the whole of [T - t, T]."""
    mu, T = s.measure, s.T
    curve = []
    for t in ts:
        a = s.value([T - t])
        f, w, _ = s.curve_rule(a, 64)
        inner = w.ravel() @ (1.0 - np.outer(f.ravel(), mu.nodes)) ** -2
        curve.append(((1.0 - a[0] * mu.nodes) ** 2 * inner) @ mu.weights)
    return sigma**2 * np.array(curve)


#: (measure, d, c) of the fig1 and fig2 sweeps, kesten_mckay:3, and a c whose curve is graded.
_SWEEPS = (
    [(kind, None, c) for c in (0.5, 1.0, 2.0, 5.0) for kind in ("dirac_minus_one", "cycle_limit")]
    + [("torus_limit", d, 1.0) for d in (1, 2, 4)]
    + [("kesten_mckay", 3, 1.0), ("cycle_limit", None, 1e4)]
)


class TestCompositeVarianceRule:
    @pytest.mark.parametrize("kind, d, c", _SWEEPS)
    def test_matches_a_64_node_rule_per_time(self, kind, d, c):
        s = solve_f(limit_measure(kind, d=d), c, 1.0)
        ts = np.linspace(0.0, 1.0, 101)
        curve, reference = limit_variance(s, 1.0, ts), gauss_reference(s, 1.0, ts)
        assert curve[0] == reference[0] == 0.0
        assert np.abs(curve[1:] / reference[1:] - 1.0).max() <= 1e-13

    def test_cycle1000_matches_a_64_node_rule_per_time(self):
        k = kernel(cycle(1000))
        ts = np.linspace(0.0, 1.0, 26)
        curve, reference = player_variance(k, ts), gauss_reference(k.schedule, k.sigma, ts)
        assert np.abs(curve[1:] / reference[1:] - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("c", [1e7, 1e8])
    def test_huge_ct_curves_match_the_closed_form(self, c):
        ts = np.linspace(0.0, 1.0, 41)[1:]
        a = c * (1.0 - ts)
        closed = (1.0 + a) ** 2 * (1.0 / (1.0 + a) - 1.0 / (1.0 + c)) / c
        curve = limit_variance(solve_f(limit_measure("dirac_minus_one"), c, 1.0), 1.0, ts)
        assert np.abs(curve / closed - 1.0).max() <= 1e-12

    @pytest.mark.parametrize(
        "kind, d, c", [("cycle_limit", None, 1.0), ("torus_limit", 2, 1.0), ("cycle_limit", None, 1e4)]
    )
    def test_one_time_agrees_with_a_curve_through_it(self, kind, d, c):
        s = solve_f(limit_measure(kind, d=d), c, 1.0)
        ts = np.linspace(0.0, 1.0, 101)
        curve = limit_variance(s, 1.0, ts)
        for i in (1, 2, 37, 50, 99, 100):
            assert limit_variance(s, 1.0, float(ts[i])) == pytest.approx(curve[i], rel=1e-14, abs=0.0)


class TestGameValue:
    def test_one_schedule_evaluation_per_rate(self, monkeypatch):
        k = kernel(cycle(8))
        calls = []
        value = FlockingSchedule.value
        monkeypatch.setattr(FlockingSchedule, "value", lambda s, t: calls.append(t) or value(s, t))
        p_eigenvalues(k, 0.3)
        assert len(calls) == 1
        calls.clear()
        game_value(k)  # f(T) is the schedule's f_T
        assert len(calls) == 0
        game_value(k, np.arange(8.0))  # f(T - 0), for P(0)
        assert len(calls) == 1
        calls.clear()
        riccati_residual(k, 0, 0.5)
        assert len(calls) == 1

    def test_complete300_near_half_log2(self):
        k = kernel(complete(300))
        assert game_value(k) == pytest.approx(0.5 * math.log(2.0), abs=0.01)

    def test_all_ones_start_changes_nothing(self):
        k = kernel(cycle(6))
        assert game_value(k, np.ones(6)) == pytest.approx(game_value(k), abs=1e-12)

    def test_two_code_paths_agree(self):
        # game_value is limit_value on the graph's measure; the trace formula
        # -(sigma^2/2) log(Tr P(0) / (n f'(T))) is the oracle
        for g in (complete(5), cycle(6), torus(3, 2), complete(2)):
            k = kernel(g, c=1.5, T=0.8, sigma=1.3)
            trace = p_eigenvalues(k, 0.0).sum() / (g.n * k.schedule.rhs(k.schedule.value(k.T)))
            assert game_value(k) == limit_value(k.schedule, k.sigma)
            assert game_value(k) == pytest.approx(-0.5 * 1.3**2 * math.log(trace), abs=1e-9)

    def test_nonzero_start_adds_quadratic_term(self):
        k = kernel(cycle(4))
        x0 = np.array([1.0, -1.0, 1.0, -1.0])
        assert game_value(k, x0) > game_value(k)


class TestLimits:
    def test_dense_variance_formula(self):
        mu = limit_measure("dirac_minus_one")
        s = solve_f(mu, 1.0, 1.0)
        assert limit_variance(s, 1.0, 1.0) == pytest.approx(0.5, abs=1e-10)
        assert limit_variance(s, 1.0, 0.0) == 0.0
        for t in (0.25, 0.6):
            expected = t * (1 + (1 - t)) / 2
            assert limit_variance(s, 1.0, t) == pytest.approx(expected, abs=1e-10)

    def test_variance_dominates_dense(self):
        dirac = limit_measure("dirac_minus_one")
        s_dirac = solve_f(dirac, 1.0, 1.0)
        for kind, d in (("cycle_limit", None), ("torus_limit", 2), ("kesten_mckay", 3)):
            mu = limit_measure(kind, d=d)
            s = solve_f(mu, 1.0, 1.0)
            for t in (0.3, 0.7, 1.0):
                assert limit_variance(s, 1.0, t) >= limit_variance(s_dirac, 1.0, t) - 1e-12

    def test_cycle_variance_against_closed_form_double_quadrature(self):
        # independent oracle: periodic trapezoid in u, adaptive quadrature in
        # s, with the schedule replaced by the closed-form Phi inverse
        mu = limit_measure("cycle_limit")
        s = solve_f(mu, 1.0, 1.0)
        t = 0.5
        u = np.linspace(0.0, 1.0, 512, endpoint=False)
        lam = np.cos(2 * np.pi * u) - 1.0
        f_t = cycle_closed_form(1.0, 1.0 - t)

        def inner(sv):
            f_s = cycle_closed_form(1.0, 1.0 - sv)
            return np.mean(((1 - lam * f_t) / (1 - lam * f_s)) ** 2)

        expected = quad(inner, 0.0, t, epsabs=1e-11)[0]
        value = limit_variance(s, 1.0, t)
        assert value == pytest.approx(expected, abs=1e-8)
        assert value >= 0.375

    def test_torus_variance_monotone_in_dimension(self):
        values = []
        for d in (1, 2, 4):
            mu = limit_measure("torus_limit", d=d)
            s = solve_f(mu, 1.0, 1.0)
            values.append(limit_variance(s, 1.0, 0.5))
        assert values[0] > values[1] > values[2]

    def test_limit_value_dense(self):
        mu = limit_measure("dirac_minus_one")
        s = solve_f(mu, 1.0, 1.0)
        assert limit_value(s, 1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("c", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0])
    def test_cycle_limit_value_holds_at_small_ct(self, c):
        # Cycle limit: int (-lam)/(1 - lam x) dmu = 1 - x(1 + 2/s)/(1 + x + s),
        # s = sqrt(1 + 2x), so the value is a log1p at x = f(T).  A log of
        # the integral, which is 1 - O(x), loses its digits as x goes to 0
        # (1e-5 relative at c = 1e-10).
        s = solve_f(limit_measure("cycle_limit"), c, 1.0)
        x = s.f_T
        root = math.sqrt(1.0 + 2.0 * x)
        exact = -0.5 * math.log1p(-x * (1.0 + 2.0 / root) / (1.0 + x + root))
        assert limit_value(s, 1.0) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 5.0, 1e3, 1e6, 1e9, 1e12])
    def test_dirac_value_holds_at_any_ct(self, c):
        # Dirac at -1: the value is log1p(f(T))/2.  At large c*T the integral
        # 1/(1 + f) is small, and 1 - f/(1 + f) would lose its digits.
        s = solve_f(limit_measure("dirac_minus_one"), c, 1.0)
        assert limit_value(s, 1.0) == pytest.approx(0.5 * math.log1p(s.f_T), rel=1e-15, abs=0.0)

    def test_limit_value_vanishing_horizon(self):
        mu = limit_measure("cycle_limit")
        s = solve_f(mu, 1.0, 1e-6)
        assert abs(limit_value(s, 1.0)) < 1e-5

    def test_finite_cycle_value_converges(self):
        mu = limit_measure("cycle_limit")
        s = solve_f(mu, 1.0, 1.0)
        target = limit_value(s, 1.0)
        for n in (100, 200):
            k = kernel(cycle(n))
            assert abs(game_value(k) - target) <= 0.02

    def test_short_time_expansion(self):
        # (V(h) - sigma^2 h)/h^2 -> V''(0)/2 with Richardson extrapolation
        for kind, d in (("dirac_minus_one", None), ("cycle_limit", None), ("torus_limit", 2)):
            mu = limit_measure(kind, d=d)
            s = solve_f(mu, 1.0, 1.0)
            f_T = s.value(1.0)
            q_T = np.exp(mu.weights @ np.log1p(-f_T * mu.nodes))
            second = -2.0 * s.rhs(f_T) ** 2 / q_T

            def g(h):
                return (limit_variance(s, 1.0, h) - h) / h**2

            h1, h2 = 1e-2, 1e-3
            richardson = (h1 * g(h2) - h2 * g(h1)) / (h1 - h2)
            assert 2.0 * richardson == pytest.approx(second, abs=1e-2)


class TestRiccatiResidual:
    @pytest.mark.parametrize("g", [complete(5), cycle(6), torus(3, 2), complete(2)])
    def test_interior_residual_small(self, g):
        k = kernel(g)
        for t in (0.25, 0.5, 0.75):
            assert riccati_residual(k, 0, t) <= 1e-6

    @pytest.mark.parametrize("g", [cycle(20), torus(4, 2)])
    def test_exact_derivative_leaves_rounding(self, g):
        # dF/dt comes from rho' = rho (rho - c Q''(f)), so the closed form solves the system to rounding,
        # at either end of the horizon too.
        k = kernel(g)
        assert max(riccati_residual(k, i, t) for i in (0, 3) for t in (0.0, 0.25, 0.5, 1.0)) <= 1e-14

    @pytest.mark.parametrize(
        "graph",
        [lambda: random_regular(28, 3, seed=1), lambda: random_regular(28, 12, seed=1), regular_not_transitive],
        ids=["rr28_3", "rr28_12", "k4_k33"],
    )
    def test_separates_a_graph_the_formula_does_not_solve(self, graph):
        with pytest.warns(RuntimeWarning):
            k = kernel(graph())
        assert riccati_residual(k, 0, 0.5) >= 1e-6

    def test_terminal_boundary(self):
        for g in (complete(5), torus(3, 2)):
            k = kernel(g)
            for i in range(g.n):
                assert riccati_terminal_residual(k, i) <= 1e-9


class TestCovarianceBound:
    def test_gamma_half_substitution(self):
        k = kernel(cycle(12))
        # delta=2, d(u,v)=3, sigma=c=T=1, t=1: 2*(0.125*2.5)/(2*0.25) = 1.25
        assert covariance_bound(k, 0, 3, 1.0) == pytest.approx(1.25, abs=1e-12)

    def test_infinite_distance_gives_zero(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(4 + u, 4 + v) for u in range(4) for v in range(u + 1, 4)]
        g = edge_list_graph(edges, n=8, one_based=False)  # two disjoint K_4s
        with pytest.warns(RuntimeWarning, match="graph transitivity is not established"):
            k = kernel(g)
        assert covariance_bound(k, 0, 5, 1.0) == 0.0

    def test_bound_holds_on_cycle20(self):
        k = kernel(cycle(20))
        law = state_law(k, 1.0)
        for u in range(20):
            for v in range(20):
                assert abs(law.covariance[u, v]) <= covariance_bound(k, u, v, 1.0) + 1e-12

    def test_invalid_vertices(self):
        k = kernel(cycle(4))
        with pytest.raises(ParameterError):
            covariance_bound(k, 0, 9, 0.5)


class TestPlayerIndex:
    @pytest.mark.parametrize("i", [1.5, True, np.float64(1.0)])
    def test_must_be_an_integer(self, i):
        k = kernel(cycle(4))
        for call in (
            lambda: equilibrium_control(k, i, 0.5, np.ones(4)),
            lambda: riccati_residual(k, i, 0.5),
            lambda: riccati_terminal_residual(k, i),
            lambda: covariance_bound(k, i, 0, 0.5),
            lambda: covariance_bound(k, 0, i, 0.5),
        ):
            with pytest.raises(ParameterError):
                call()
