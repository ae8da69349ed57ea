import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from graphflock import strategies
from graphflock.equilibrium import build_kernel, game_value, p_matrix
from graphflock.errors import NumericError, ParameterError
from graphflock.graphs import complete, cycle, edge_list_graph, erdos_renyi, torus
from graphflock.strategies import (
    LinearProfile,
    _alignment_row,
    alignment_functionals,
    best_response,
    cost_under_profile,
    custom_profile,
    deviation_gap,
    epsilon_bounds,
    equilibrium_profile,
    mf_profile,
    nash_audit,
    profile_costs,
    zero_profile,
)


def single_vertex():
    return edge_list_graph([], n=1, one_based=False)


class TestProfiles:
    def test_mf_entries(self):
        g = cycle(4)
        prof = mf_profile(g, c=1.0, T=1.0, steps=200)
        assert np.allclose(prof.at(1.0), np.eye(4))
        assert np.allclose(prof.at(0.0), 0.5 * np.eye(4))
        assert np.allclose(prof.at(0.5), (2.0 / 3.0) * np.eye(4))
        off = prof.at(0.3)[~np.eye(4, dtype=bool)]
        assert np.all(off == 0.0)

    def test_equilibrium_profile_rows(self):
        k = build_kernel(cycle(4), 1.0, 1.0, 1.0, steps=200)
        prof = equilibrium_profile(k)
        assert np.allclose(prof.at(0.7), p_matrix(k, 0.7))

    def test_profile_graph_mismatch(self):
        prof = mf_profile(cycle(4), 1.0, 1.0, steps=100)
        with pytest.raises(ParameterError):
            cost_under_profile(cycle(5), prof, 0, sigma=1.0, c=1.0)


class TestAlignmentFunctionals:
    def test_matches_row_loop(self):
        g = edge_list_graph([(1, 2), (2, 3), (1, 3), (3, 4)], n=6)  # vertices 5, 6 isolated
        reference = np.eye(g.n)
        for i in range(g.n):
            if g.degrees[i] > 0:
                reference[i] -= g.adjacency[i] / g.degrees[i]
        functionals = alignment_functionals(g)
        assert np.array_equal(functionals, reference)
        for i in range(g.n):
            assert np.array_equal(_alignment_row(g, i), reference[i])


REDUCTION_GRAPHS = {
    "complete10": lambda: complete(10),
    "cycle20": lambda: cycle(20),
    "torus4x2": lambda: torus(4, 2),
    "er50": lambda: erdos_renyi(50, 0.3, seed=7),
    "isolated": lambda: edge_list_graph([(1, 2)], n=3),
}


class TestScalarReduction:
    """Scalar profiles (K = k I) are solved in 2x2 / scalar form; the dense
    path on the same matrices is the reference."""

    @pytest.mark.parametrize("kind", ["mean_field", "zero"])
    @pytest.mark.parametrize("with_x0", [False, True], ids=["x0=0", "x0"])
    @pytest.mark.parametrize("graph", sorted(REDUCTION_GRAPHS))
    def test_matches_dense(self, graph, with_x0, kind):
        g = REDUCTION_GRAPHS[graph]()
        c, T, sigma, steps = 1.3, 1.0, 0.8, 200
        prof = mf_profile(g, c, T, steps) if kind == "mean_field" else zero_profile(g, T, steps)
        assert prof.rate is not None
        dense = custom_profile(g, T, prof.at, steps)
        x0 = np.random.default_rng(5).normal(size=g.n) if with_x0 else None
        assert np.abs(profile_costs(g, prof, sigma, c, x0) - profile_costs(g, dense, sigma, c, x0)).max() <= 1e-12
        values = [p["best_response_value"] for p in nash_audit(g, prof, c, sigma, x0)["players"]]
        for i in range(g.n):
            fast, ref = best_response(g, prof, i, c, sigma, x0), best_response(g, dense, i, c, sigma, x0)
            assert abs(fast.value - ref.value) <= 1e-12
            assert abs(values[i] - ref.value) <= 1e-12
            assert np.abs(fast.feedback - ref.feedback).max() <= 1e-12

    def test_audit_builds_no_stage_matrices(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense stage matrices built for a scalar profile")

        monkeypatch.setattr(LinearProfile, "stage_matrices", refuse)
        g = erdos_renyi(50, 0.3, seed=7)
        report = nash_audit(g, mf_profile(g, 1.0, 1.0, steps=100), c=1.0, sigma=1.0)
        assert report["all_satisfied"]


class TestStageCacheBudget:
    def test_over_budget_raises_before_evaluating(self, monkeypatch):
        g, steps = cycle(6), 100
        evaluated = []
        prof = custom_profile(g, 1.0, lambda t: evaluated.append(t) or np.eye(6), steps=steps)
        size = (2 * steps + 1) * g.n**2 * 8
        monkeypatch.setattr(strategies, "STAGE_CACHE_BUDGET", size - 1)
        with pytest.raises(ParameterError, match="budget"):
            nash_audit(g, prof, c=1.0, sigma=1.0)
        assert evaluated == []
        monkeypatch.setattr(strategies, "STAGE_CACHE_BUDGET", size)
        assert len(prof.stage_matrices()) == 2 * steps + 1


class TestRiccatiReference:
    """best_response against scipy's solve_ivp on the full n x n system."""

    def test_nonsymmetric_time_varying_profile(self):
        g = edge_list_graph([(1, 2), (2, 3), (1, 3), (3, 4)], n=5)  # vertex 5 isolated
        n, c, T, sigma, steps = g.n, 1.3, 1.0, 0.8, 1000
        rng = np.random.default_rng(11)
        k0, k1 = 0.5 * rng.normal(size=(2, n, n))
        assert np.abs(k0 - k0.T).max() > 0.1

        def matrix_fn(t):
            return k0 + np.sin(3.0 * t) * k1

        prof = custom_profile(g, T, matrix_fn, steps)
        x0 = rng.normal(size=n)
        for i in (0, 2, 4):
            own = np.zeros((n, n))
            own[i, i] = 1.0

            def rhs(t, y):
                # Opponents follow K; player i's own row of the drift is its control.
                f = y[:-1].reshape(n, n)
                m = matrix_fn(t) - own @ matrix_fn(t)
                df = f @ own @ f + m.T @ f + f @ m
                return np.append(df.ravel(), -0.5 * sigma**2 * np.trace(f))

            ell = alignment_functionals(g)[i]
            checked = np.arange(steps, -1, -250)
            sol = solve_ivp(
                rhs, (T, 0.0), np.append(c * np.outer(ell, ell).ravel(), 0.0),
                method="DOP853", rtol=1e-12, atol=1e-12, t_eval=prof.grid[checked],
            )
            assert sol.success
            br = best_response(g, prof, i, c, sigma, x0)
            f0, h0 = sol.y[:-1, -1].reshape(n, n), sol.y[-1, -1]
            assert abs(br.value - (0.5 * x0 @ f0 @ x0 + h0)) <= 1e-9
            for col, j in enumerate(checked):
                assert np.abs(br.feedback[j] - sol.y[:-1, col].reshape(n, n)[i]).max() <= 1e-9


class TestCostUnderProfile:
    def test_zero_profile_isolated_vertex(self):
        g = single_vertex()
        prof = zero_profile(g, T=1.0, steps=200)
        for c, sigma in ((1.0, 1.0), (2.0, 0.5)):
            cost = cost_under_profile(g, prof, 0, sigma=sigma, c=c)
            assert cost == pytest.approx(0.5 * c * sigma**2 * 1.0, abs=1e-10)

    def test_equilibrium_profile_average_equals_game_value(self):
        k = build_kernel(complete(50), 1.0, 1.0, 1.0, steps=2000)
        prof = equilibrium_profile(k)
        costs = profile_costs(complete(50), prof, sigma=1.0, c=1.0)
        assert costs.mean() == pytest.approx(game_value(k), abs=1e-6)

    def test_mean_field_cost_closed_form_complete(self):
        # opponents and self are independent OU processes with variance
        # V(t) = sigma^2 t (1 + c(T-t)) / (1 + cT); assemble the cost directly
        n, c, T, sigma = 10, 1.0, 1.0, 1.0
        g = complete(n)
        prof = mf_profile(g, c, T, steps=2000)
        cost = cost_under_profile(g, prof, 0, sigma=sigma, c=c)

        def v(t):
            return sigma**2 * t * (1 + c * (T - t)) / (1 + c * T)

        running = 0.5 * quad(lambda t: (c / (1 + c * (T - t))) ** 2 * v(t), 0, T, epsabs=1e-12)[0]
        terminal = 0.5 * c * v(T) * (1.0 + 1.0 / (n - 1))
        assert cost == pytest.approx(running + terminal, abs=1e-8)

    def test_nonzero_start_drifts_to_rest(self):
        g = cycle(4)
        prof = mf_profile(g, 1.0, 1.0, steps=400)
        x0 = np.array([2.0, 0.0, 0.0, -2.0])
        cost0 = cost_under_profile(g, prof, 0, sigma=1.0, c=1.0)
        cost_x0 = cost_under_profile(g, prof, 0, sigma=1.0, c=1.0, x0=x0)
        assert cost_x0 > cost0

    def test_grid_refinement(self):
        for g in (complete(2), cycle(6)):
            coarse = profile_costs(g, mf_profile(g, 1.0, 1.0, steps=1000), sigma=1.0, c=1.0)
            fine = profile_costs(g, mf_profile(g, 1.0, 1.0, steps=2000), sigma=1.0, c=1.0)
            assert np.abs(coarse - fine).max() <= 1e-8


class TestBestResponse:
    def test_isolated_single_player(self):
        g = single_vertex()
        c, T, sigma = 1.0, 1.0, 1.0
        prof = zero_profile(g, T=T, steps=2000)
        br = best_response(g, prof, 0, c=c, sigma=sigma)
        assert br.value == pytest.approx(0.5 * sigma**2 * math.log(1 + c * T), abs=1e-9)
        expected = c / (1 + c * (T - br.grid))
        assert np.abs(br.feedback[:, 0] - expected).max() <= 1e-9

    def test_fixed_point_of_equilibrium(self):
        g = cycle(6)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=2000)
        prof = equilibrium_profile(k)
        for i in (0, 2):
            br = best_response(g, prof, i, c=1.0, sigma=1.0)
            worst = 0.0
            for j in (0, 500, 1000, 1500, 2000):
                row = p_matrix(k, prof.grid[j])[i]
                worst = max(worst, np.abs(br.feedback[j] - row).max())
            assert worst <= 1e-6

    def test_vanishing_horizon_value(self):
        # with T -> 0 there is no time to act or accumulate noise
        g = cycle(4)
        prof = mf_profile(g, c=1.0, T=1e-3, steps=100)
        br = best_response(g, prof, 0, c=1.0, sigma=1.0)
        assert abs(br.value) < 5e-3

    def test_blowup_capped(self):
        g = complete(2)
        destabilizing = custom_profile(g, T=1.0, matrix_fn=lambda t: -1e4 * np.eye(2), steps=200)
        with pytest.raises(NumericError):
            best_response(g, destabilizing, 0, c=1.0, sigma=1.0)

    def test_invalid_player(self):
        g = cycle(4)
        prof = mf_profile(g, 1.0, 1.0, steps=100)
        with pytest.raises(ParameterError):
            best_response(g, prof, 4, c=1.0, sigma=1.0)


class TestDeviationGap:
    def test_equilibrium_profile_no_gain(self):
        g = complete(10)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=2000)
        prof = equilibrium_profile(k)
        for i in (0, 7):
            assert abs(deviation_gap(g, prof, i, c=1.0, sigma=1.0)) <= 1e-6

    def test_mean_field_gap_within_certificate(self):
        g = cycle(20)
        prof = mf_profile(g, 1.0, 1.0, steps=2000)
        eps = epsilon_bounds(g, 1.0, 1.0, 1.0).per_vertex[0]
        gap = deviation_gap(g, prof, 0, c=1.0, sigma=1.0)
        assert 0.0 < gap <= eps
        assert eps == pytest.approx(0.5 * math.sqrt(1.5), abs=1e-12)

    def test_mean_field_isolated_exact(self):
        g = single_vertex()
        prof = mf_profile(g, 1.0, 1.0, steps=2000)
        assert abs(deviation_gap(g, prof, 0, c=1.0, sigma=1.0)) <= 1e-8


class TestEpsilonBounds:
    def test_complete_101(self):
        eps = epsilon_bounds(complete(101), 1.0, 1.0, 1.0)
        assert np.allclose(eps.per_vertex, 0.5 * math.sqrt(3.0 / 100.0), atol=1e-12)
        assert eps.aggregate == pytest.approx(0.5 * math.sqrt(3.0 / 100.0), abs=1e-12)

    def test_cycle_certificate(self):
        eps = epsilon_bounds(cycle(17), 1.0, 1.0, 1.0)
        assert np.allclose(eps.per_vertex, 0.5 * math.sqrt(1.5), atol=1e-12)

    def test_isolated_vertex_zero(self):
        g = edge_list_graph([(1, 2)], n=3)
        eps = epsilon_bounds(g, 1.0, 1.0, 1.0)
        assert eps.per_vertex[2] == 0.0
        assert eps.aggregate == pytest.approx(
            0.5 * math.sqrt(3.0), abs=1e-12
        )  # min degree 0 -> 1 v delta = 1
        assert eps.avg_degree_diagnostic == pytest.approx((1 + 1 + 1) / 3.0, abs=1e-12)

    def test_scaling_in_sigma(self):
        a = epsilon_bounds(cycle(5), 1.0, 1.0, 1.0).per_vertex[0]
        b = epsilon_bounds(cycle(5), 1.0, 1.0, 2.0).per_vertex[0]
        assert b == pytest.approx(4.0 * a, abs=1e-12)


class TestNashAudit:
    def test_mean_field_complete10(self):
        g = complete(10)
        prof = mf_profile(g, 1.0, 1.0, steps=1000)
        report = nash_audit(g, prof, c=1.0, sigma=1.0)
        assert report["all_satisfied"]
        assert len(report["players"]) == 10
        entry = report["players"][0]
        assert set(entry) == {"vertex", "cost", "best_response_value", "gap", "epsilon_bound", "satisfied"}
        assert entry["gap"] <= entry["epsilon_bound"]

    def test_equilibrium_audit_zero_bound(self):
        g = torus(3, 2)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=1000)
        report = nash_audit(g, equilibrium_profile(k), c=1.0, sigma=1.0)
        assert report["all_satisfied"]
        assert report["max_gap"] <= 1e-5


class TestRiccatiAgainstMonteCarlo:
    def test_k2_policy_evaluation(self):
        # Monte Carlo policy evaluation of the best-response feedback on a
        # single edge, independent of every solver in the package.
        g = complete(2)
        c = sigma = T = 1.0
        steps = 1000
        prof = mf_profile(g, c, T, steps=steps)
        br = best_response(g, prof, 0, c=c, sigma=sigma)

        rng = np.random.default_rng(42)
        paths = 20000
        dt = T / steps
        x = np.zeros((paths, 2))
        running = np.zeros(paths)
        for j in range(steps):
            t = j * dt
            k_row0 = br.feedback[j]
            alpha0 = -(x @ k_row0)
            alpha1 = -c * x[:, 1] / (1 + c * (T - t))
            running += 0.5 * alpha0**2 * dt
            x[:, 0] += alpha0 * dt
            x[:, 1] += alpha1 * dt
            x += sigma * math.sqrt(dt) * rng.standard_normal((paths, 2))
        total = running + 0.5 * c * (x[:, 0] - x[:, 1]) ** 2
        se = total.std(ddof=1) / math.sqrt(paths)
        assert total.mean() == pytest.approx(br.value, abs=3 * se + 5e-3)
