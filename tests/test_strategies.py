import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from graphflock.cooperative import coop_kernel, coop_profile
from graphflock.equilibrium import build_kernel, game_value, p_matrix, riccati_residual
from graphflock.errors import NumericError, ParameterError
from graphflock.graphs import complete, cycle, edge_list_graph, erdos_renyi, random_regular, torus
from graphflock import strategies
from graphflock.spectral import EigenSystem
from graphflock.strategies import (
    LinearProfile,
    alignment_functionals,
    best_response,
    custom_profile,
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
        prof = mf_profile(g, c=1.0, T=1.0)
        assert np.allclose(prof.at(1.0), np.eye(4))
        assert np.allclose(prof.at(0.0), 0.5 * np.eye(4))
        assert np.allclose(prof.at(0.5), (2.0 / 3.0) * np.eye(4))
        off = prof.at(0.3)[~np.eye(4, dtype=bool)]
        assert np.all(off == 0.0)

    def test_equilibrium_profile_rows(self):
        k = build_kernel(cycle(4), 1.0, 1.0, 1.0)
        prof = equilibrium_profile(k)
        assert np.allclose(prof.at(0.7), p_matrix(k, 0.7))

    def test_profile_graph_mismatch(self):
        prof = mf_profile(cycle(4), 1.0, 1.0)
        with pytest.raises(ParameterError):
            profile_costs(cycle(5), prof, sigma=1.0, c=1.0, steps=100)

    def test_profile_needs_one_form(self):
        with pytest.raises(ParameterError) as info:
            LinearProfile(5, 1.0, "custom")
        assert str(info.value) == "a profile sets exactly one of rates and matrix_fn"

    def test_spectral_profile_checks_its_own_form(self):
        # An eigensystem beside a dense K, or of another size, is refused when the profile is made.
        eigen = build_kernel(cycle(5), 1.0, 1.0, 1.0).eigen
        with pytest.raises(ParameterError, match="a dense profile takes no eigensystem"):
            LinearProfile(5, 1.0, "custom", eigen=eigen, matrix_fn=lambda t: np.eye(5))
        with pytest.raises(ParameterError, match="profile is for 6 players, its eigensystem has 5"):
            LinearProfile(6, 1.0, "custom", lambda t, lam: 0.0 * lam, eigen)


class TestAlignmentFunctionals:
    def test_matches_row_loop(self):
        g = edge_list_graph([(1, 2), (2, 3), (1, 3), (3, 4)], n=6)  # vertices 5, 6 isolated
        reference = np.eye(g.n)
        for i in range(g.n):
            if g.degrees[i] > 0:
                reference[i] -= g.adjacency[i] / g.degrees[i]
        assert np.array_equal(alignment_functionals(g), reference)


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
        prof = mf_profile(g, c, T) if kind == "mean_field" else zero_profile(g, T)
        assert prof.rates is not None
        dense = custom_profile(g, T, prof.at)
        x0 = np.random.default_rng(5).normal(size=g.n) if with_x0 else None
        costs, dense_costs = profile_costs(g, prof, sigma, c, x0, steps), profile_costs(g, dense, sigma, c, x0, steps)
        assert np.abs(costs - dense_costs).max() <= 1e-12
        values = [p["best_response_value"] for p in nash_audit(g, prof, c, sigma, x0, steps)["players"]]
        for i in range(g.n):
            fast, ref = best_response(g, prof, i, c, sigma, x0, steps), best_response(g, dense, i, c, sigma, x0, steps)
            assert abs(fast.value - ref.value) <= 1e-12
            assert abs(values[i] - ref.value) <= 1e-12
            assert np.abs(fast.feedback - ref.feedback).max() <= 1e-12

    @pytest.mark.parametrize("kind", ["mean_field", "equilibrium"])
    def test_audit_builds_no_feedback_matrix(self, monkeypatch, kind):
        def refuse(self, t):
            raise AssertionError("dense feedback matrix built for a modal profile")

        monkeypatch.setattr(LinearProfile, "at", refuse)
        g = erdos_renyi(50, 0.3, seed=7) if kind == "mean_field" else torus(4, 2)
        if kind == "mean_field":
            prof = mf_profile(g, 1.0, 1.0)
        else:
            prof = equilibrium_profile(build_kernel(g, 1.0, 1.0, 1.0))
        report = nash_audit(g, prof, c=1.0, sigma=1.0, steps=100)
        assert report["all_satisfied"]


def regular_not_transitive():
    # K_4 disjoint from K_{3,3}: 3-regular, but no automorphism maps one to the other.
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(4 + a, 7 + b) for a in range(3) for b in range(3)]
    return edge_list_graph(edges, n=10, one_based=False)


SPECTRAL_GRAPHS = {
    "complete5": lambda: complete(5),
    "cycle6": lambda: cycle(6),
    "torus3x2": lambda: torus(3, 2),
    "complete2": lambda: complete(2),
    "cycle20": lambda: cycle(20),
    "complete30": lambda: complete(30),
    "k4_k33": regular_not_transitive,
}


class TestSpectralReduction:
    """Spectral profiles (K = sum_lam p_lam Pi_lam) are solved in L's
    eigenspaces; the dense path on the same matrices is the reference."""

    @pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["equilibrium", "coop"])
    @pytest.mark.parametrize("with_x0", [False, True], ids=["x0=0", "x0"])
    @pytest.mark.parametrize("graph", sorted(SPECTRAL_GRAPHS))
    def test_matches_dense(self, graph, with_x0, kind):
        g = SPECTRAL_GRAPHS[graph]()
        c, T, sigma, steps = 1.3, 1.0, 0.8, 200
        if kind == "equilibrium":
            prof = equilibrium_profile(build_kernel(g, c, T, sigma))
        else:
            prof = coop_profile(coop_kernel(g, c, T, sigma))
        assert prof.eigen is not None and prof.tag == kind
        dense = custom_profile(g, T, prof.at)
        x0 = np.random.default_rng(5).normal(size=g.n) if with_x0 else None
        costs, dense_costs = profile_costs(g, prof, sigma, c, x0, steps), profile_costs(g, dense, sigma, c, x0, steps)
        assert np.abs(costs - dense_costs).max() <= 1e-12
        values = [p["best_response_value"] for p in nash_audit(g, prof, c, sigma, x0, steps)["players"]]
        for i in range(g.n):
            fast, ref = best_response(g, prof, i, c, sigma, x0, steps), best_response(g, dense, i, c, sigma, x0, steps)
            assert abs(fast.value - ref.value) <= 1e-12
            assert abs(values[i] - ref.value) <= 1e-12
            assert np.abs(fast.feedback - ref.feedback).max() <= 1e-12

    @pytest.mark.parametrize("graph", ["cycle20", "torus3x2"])
    def test_transitive_audit_reads_no_eigenvectors(self, monkeypatch, graph):
        g = SPECTRAL_GRAPHS[graph]()
        prof = equilibrium_profile(build_kernel(g, 1.0, 1.0, 1.0))

        def refuse(self):
            raise AssertionError("eigenvectors read by an audit on a transitive graph")

        monkeypatch.setattr(EigenSystem, "eigenvectors", property(refuse))
        report = nash_audit(g, prof, c=1.0, sigma=1.0, steps=100)
        assert report["all_satisfied"] and len(report["players"]) == g.n


def switched_triangular(switch=()):
    """T(8) = L(K8), whose vertices are the 28 edges of K8, Seidel-switched
    with respect to a set of K8 edges: a T(8) vertex in the set and one
    outside it are joined exactly when they were not.  The empty set gives
    T(8) itself."""
    pairs, switch = [(a, b) for a in range(8) for b in range(a + 1, 8)], {tuple(sorted(e)) for e in switch}
    inside = [e in switch for e in pairs]
    edges = [
        (u, v)
        for u in range(28)
        for v in range(u + 1, 28)
        if bool(set(pairs[u]) & set(pairs[v])) != (inside[u] != inside[v])
    ]
    return edge_list_graph(edges, n=28, one_based=False)


#: The three Chang graphs switch T(8) with respect to a perfect matching, an 8-cycle, or a 3-cycle
#: and a 5-cycle of K8.  Like T(8) they are strongly regular (28, 12, 6, 4), hence walk-regular;
#: T(8) is vertex-transitive and they are not.
CHANG_SWITCHES = {
    "matching": {(0, 1), (2, 3), (4, 5), (6, 7)},
    "8-cycle": {(i, (i + 1) % 8) for i in range(8)},
    "3-cycle+5-cycle": {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)},
}


def audit_classes(g, prof):
    """The number of classes of alike players an audit of prof solves for."""
    return np.unique(strategies._players(g, prof, None, 100)[2]).size


def equilibrium_audit(g, steps):
    prof = equilibrium_profile(build_kernel(g, 1.0, 1.0, 1.0))
    return prof, nash_audit(g, prof, c=1.0, sigma=1.0, steps=steps)


@pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")
class TestWalkRegular:
    """The formula's domain is read from the spectrum: one audit class where every player has the
    same local weights e_i^T Pi_lam e_i, whether or not the graph is vertex-transitive."""

    @pytest.mark.parametrize("switch", sorted(CHANG_SWITCHES))
    def test_chang_graphs_are_strongly_regular(self, switch):
        g = switched_triangular(CHANG_SWITCHES[switch])
        adj = g.adjacency.astype(int)
        common = adj @ adj
        assert (g.degrees == 12).all()
        assert set(common[adj == 1]) == {6} and set(common[(adj == 0) & ~np.eye(28, dtype=bool)]) == {4}
        # An automorphism keeps the number of K4s through a vertex; here it takes two values.
        k4s = {int(np.trace(np.linalg.matrix_power(adj[row == 1][:, row == 1], 3))) // 6 for row in adj}
        assert len(k4s) == 2

    @pytest.mark.parametrize("steps", [100, 400])
    def test_chang_audits_are_one_class_with_the_gaps_of_t8(self, steps):
        t8, t8_report = equilibrium_audit(switched_triangular(), steps)
        t8_gaps = np.array([p["gap"] for p in t8_report["players"]])
        assert audit_classes(switched_triangular(), t8) == 1
        for switch in CHANG_SWITCHES.values():
            g = switched_triangular(switch)
            prof, report = equilibrium_audit(g, steps)
            assert audit_classes(g, prof) == 1
            assert np.abs(np.array([p["gap"] for p in report["players"]]) - t8_gaps).max() <= 1e-15

    def test_triangular_prism_audit_is_one_class(self):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
        g = edge_list_graph(edges, n=6, one_based=False)
        prof, report = equilibrium_audit(g, 100)
        assert audit_classes(g, prof) == 1 and report["all_satisfied"]

    @pytest.mark.parametrize("switch", ["T8", *sorted(CHANG_SWITCHES)])
    def test_riccati_residual_reads_rounding(self, switch):
        k = build_kernel(switched_triangular(CHANG_SWITCHES.get(switch, ())), 1.0, 1.0, 1.0)
        assert max(riccati_residual(k, i, t) for i in (0, 13, 27) for t in (0.0, 0.5, 1.0)) <= 1e-14

    @pytest.mark.parametrize(
        "graph",
        [lambda: random_regular(28, 3, seed=1), lambda: random_regular(28, 12, seed=1), regular_not_transitive],
        ids=["rr28_3", "rr28_12", "k4_k33"],
    )
    def test_other_regular_graphs_keep_a_class_per_player(self, graph):
        g = graph()
        prof, _ = equilibrium_audit(g, 100)
        assert audit_classes(g, prof) == g.n


MODAL_AUDITS = {
    "er50-mean_field": lambda: (erdos_renyi(50, 0.3, seed=7), lambda g: mf_profile(g, 1.3, 1.0)),
    "er50-zero": lambda: (erdos_renyi(50, 0.3, seed=7), lambda g: zero_profile(g, 1.0)),
    "cycle20-equilibrium": lambda: (cycle(20), lambda g: equilibrium_profile(build_kernel(g, 1.3, 1.0, 0.8))),
    "k4_k33-equilibrium": lambda: (
        regular_not_transitive(), lambda g: equilibrium_profile(build_kernel(g, 1.3, 1.0, 0.8))
    ),
    "torus3x2-coop": lambda: (torus(3, 2), lambda g: coop_profile(coop_kernel(g, 1.3, 1.0, 0.8))),
}

#: The step count of every MODAL_AUDITS audit.
MODAL_STEPS = 100


class TestModalMaps:
    """Modal profiles are solved by precomputed RK4 maps, never by rk4_step."""

    @pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")
    @pytest.mark.parametrize("with_x0", [False, True], ids=["x0=0", "x0"])
    @pytest.mark.parametrize("audit", sorted(MODAL_AUDITS))
    def test_audit_never_steps(self, monkeypatch, audit, with_x0):
        g, make = MODAL_AUDITS[audit]()
        prof = make(g)
        assert prof.matrix_fn is None

        def refuse(*args, **kwargs):
            raise AssertionError("rk4_step called for a modal profile")

        monkeypatch.setattr(strategies, "rk4_step", refuse)
        x0 = np.random.default_rng(5).normal(size=g.n) if with_x0 else None
        costs = profile_costs(g, prof, 0.8, 1.3, x0, MODAL_STEPS)
        br = best_response(g, prof, 3, 1.3, 0.8, x0, MODAL_STEPS)
        report = nash_audit(g, prof, 1.3, 0.8, x0, MODAL_STEPS)
        assert report["players"][3]["cost"] == costs[3]
        assert report["players"][3]["best_response_value"] == pytest.approx(br.value, rel=1e-13)

    def test_spectral_step_that_does_not_resolve_is_refused(self):
        g = cycle(20)
        # c dt = 1: the best response costs more than the profile.
        prof = equilibrium_profile(build_kernel(g, 100.0, 1.0, 1.0))
        with pytest.raises(NumericError, match="player 0's best response costs .* more than its cost"):
            nash_audit(g, prof, c=100.0, sigma=1.0, steps=100)
        # c dt = 3: z more than doubles within one step.
        prof = equilibrium_profile(build_kernel(g, 300.0, 1.0, 1.0))
        with pytest.raises(NumericError, match="100 steps do not resolve the profile"):
            best_response(g, prof, 0, c=300.0, sigma=1.0, steps=100)
        with pytest.raises(NumericError, match="which is not finite"):
            nash_audit(g, prof, c=300.0, sigma=1.0, steps=100)

    @pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")
    def test_non_transitive_spectral_audit_refused(self):
        g = regular_not_transitive()
        prof = equilibrium_profile(build_kernel(g, 300.0, 1.0, 1.0))
        with pytest.raises(NumericError, match="100 steps do not resolve the profile"):
            best_response(g, prof, 7, c=300.0, sigma=1.0, steps=100)
        with pytest.raises(NumericError, match="player 0's best response costs nan, which is not finite"):
            nash_audit(g, prof, c=300.0, sigma=1.0, steps=100)


class TestOneTable:
    """Every entry point evaluates the profile's rates once per call, and
    its costs and best responses read that one table."""

    @pytest.mark.filterwarnings("ignore:graph transitivity:RuntimeWarning")
    @pytest.mark.parametrize("with_x0", [False, True], ids=["x0=0", "x0"])
    @pytest.mark.parametrize("audit", ["er50-mean_field", "cycle20-equilibrium", "k4_k33-equilibrium", "torus3x2-coop"])
    def test_one_rate_evaluation_per_call(self, audit, with_x0):
        # One call on the half-step grid; a spectral rate is read at the first eigenvalue of each
        # eigenspace and nowhere else.
        g, make = MODAL_AUDITS[audit]()
        prof = make(g)
        calls = []
        counted = dataclasses.replace(prof, rates=lambda *args: calls.append(args) or prof.rates(*args))
        spectrum = [] if prof.eigen is None else [prof.eigen.eigenvalues[prof.eigen.eigenspaces()]]
        x0 = np.random.default_rng(5).normal(size=g.n) if with_x0 else None
        for call in (
            lambda: nash_audit(g, counted, 1.3, 0.8, x0, MODAL_STEPS),
            lambda: best_response(g, counted, 3, 1.3, 0.8, x0, MODAL_STEPS),
            lambda: profile_costs(g, counted, 0.8, 1.3, x0, MODAL_STEPS),
        ):
            calls.clear()
            call()
            ((times, *lam),) = calls
            assert np.array_equal(times, np.linspace(0.0, prof.T, 2 * MODAL_STEPS + 1))
            assert len(lam) == len(spectrum) and all(map(np.array_equal, lam, spectrum))


class TestDenseMemory:
    def test_audit_holds_no_stage_table(self):
        # A table of K on the 801 half-step times would take 801 * 60^2 * 8 B = 23 MB.
        g = cycle(60)
        eye = np.eye(g.n)
        prof = custom_profile(g, 1.0, lambda t: (1.0 + t) * eye)
        tracemalloc.start()
        try:
            report = nash_audit(g, prof, c=1.0, sigma=1.0, steps=400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report["players"]) == g.n
        assert peak < 4 * 2**20

    def test_audit_evaluates_k_once_per_stage(self):
        g, steps = erdos_renyi(40, 0.3, seed=3), 200
        prof = coop_profile(coop_kernel(g, 1.0, 1.0, 1.0))
        assert prof.matrix_fn is not None
        calls = []
        counted = dataclasses.replace(prof, matrix_fn=lambda t: calls.append(t) or prof.matrix_fn(t))
        profile_costs(g, counted, sigma=1.0, c=1.0, steps=steps)
        forward = len(calls)
        nash_audit(g, counted, c=1.0, sigma=1.0, steps=steps)
        # The audit's own profile_costs pass, then its best responses: at
        # most one evaluation per half-step time for every player together.
        assert forward == 2 * steps + 1
        assert len(calls) - 2 * forward <= 2 * steps + 1


class TestDensePin:
    def test_dense_audit_bytes_are_pinned(self):
        # erdos_renyi(12, 0.4, seed=5) is not regular, so the planner's profile is dense; the digest
        # was taken before the step count moved from the profile to the audits.
        g = erdos_renyi(12, 0.4, seed=5)
        prof = coop_profile(coop_kernel(g, 1.0, 1.0, 1.0))
        assert prof.matrix_fn is not None
        digest = hashlib.sha256(profile_costs(g, prof, 1.0, 1.0, steps=100).tobytes())
        digest.update(best_response(g, prof, 3, 1.0, 1.0, steps=100).feedback.tobytes())
        assert digest.hexdigest() == "f4080e4445eda02908139e0d362f06941329c1ff2d9a992a6e563fe8343e8872"


class TestTransitiveMemory:
    def test_audit_holds_no_player_by_mode_table(self):
        # One (players x eigenspaces) table on cycle(4000) would take 4000 * 2001 * 8 B = 61 MiB.
        g = cycle(4000)
        prof = equilibrium_profile(build_kernel(g, 1.0, 1.0, 1.0))
        tracemalloc.start()
        try:
            report = nash_audit(g, prof, c=1.0, sigma=1.0, steps=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["all_satisfied"] and len(report["players"]) == g.n
        assert peak < 32 * 2**20

    def test_audit_reads_rates_at_distinct_eigenvalues(self):
        # A 201 x 20000 table of rates at every eigenvalue would take 30.7 MiB; the audit
        # reads them at cycle(20000)'s 10001 distinct eigenvalues.
        g = cycle(20000)
        prof = equilibrium_profile(build_kernel(g, 1.0, 1.0, 1.0))
        tracemalloc.start()
        try:
            report = nash_audit(g, prof, c=1.0, sigma=1.0, steps=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["all_satisfied"] and len(report["players"]) == g.n
        assert peak < 40 * 2**20


class TestRiccatiReference:
    """best_response against scipy's solve_ivp on the full n x n system."""

    @pytest.mark.parametrize("steps", [1000, 100])
    def test_nonsymmetric_time_varying_profile(self, steps):
        g = edge_list_graph([(1, 2), (2, 3), (1, 3), (3, 4)], n=5)  # vertex 5 isolated
        n, c, T, sigma = g.n, 1.3, 1.0, 0.8
        rng = np.random.default_rng(11)
        k0, k1 = 0.5 * rng.normal(size=(2, n, n))
        assert np.abs(k0 - k0.T).max() > 0.1

        def matrix_fn(t):
            return k0 + np.sin(3.0 * t) * k1

        prof = custom_profile(g, T, matrix_fn)
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
            checked = np.arange(steps, -1, -steps // 4)
            sol = solve_ivp(
                rhs, (T, 0.0), np.append(c * np.outer(ell, ell).ravel(), 0.0),
                method="DOP853", rtol=1e-12, atol=1e-12, t_eval=np.linspace(0.0, T, steps + 1)[checked],
            )
            assert sol.success
            br = best_response(g, prof, i, c, sigma, x0, steps)
            f0, h0 = sol.y[:-1, -1].reshape(n, n), sol.y[-1, -1]
            assert abs(br.value - (0.5 * x0 @ f0 @ x0 + h0)) <= 1e-9
            for col, j in enumerate(checked):
                assert np.abs(br.feedback[j] - sol.y[:-1, col].reshape(n, n)[i]).max() <= 1e-9


class TestCostUnderProfile:
    def test_zero_profile_isolated_vertex(self):
        g = single_vertex()
        prof = zero_profile(g, T=1.0)
        for c, sigma in ((1.0, 1.0), (2.0, 0.5)):
            cost = profile_costs(g, prof, sigma=sigma, c=c, steps=200)[0]
            assert cost == pytest.approx(0.5 * c * sigma**2 * 1.0, abs=1e-10)

    def test_equilibrium_profile_average_equals_game_value(self):
        k = build_kernel(complete(50), 1.0, 1.0, 1.0)
        prof = equilibrium_profile(k)
        costs = profile_costs(complete(50), prof, sigma=1.0, c=1.0, steps=2000)
        assert costs.mean() == pytest.approx(game_value(k), abs=1e-6)

    def test_mean_field_cost_closed_form_complete(self):
        # opponents and self are independent OU processes with variance
        # V(t) = sigma^2 t (1 + c(T-t)) / (1 + cT); assemble the cost directly
        n, c, T, sigma = 10, 1.0, 1.0, 1.0
        g = complete(n)
        prof = mf_profile(g, c, T)
        cost = profile_costs(g, prof, sigma=sigma, c=c, steps=2000)[0]

        def v(t):
            return sigma**2 * t * (1 + c * (T - t)) / (1 + c * T)

        running = 0.5 * quad(lambda t: (c / (1 + c * (T - t))) ** 2 * v(t), 0, T, epsabs=1e-12)[0]
        terminal = 0.5 * c * v(T) * (1.0 + 1.0 / (n - 1))
        assert cost == pytest.approx(running + terminal, abs=1e-8)

    def test_nonzero_start_drifts_to_rest(self):
        g = cycle(4)
        prof = mf_profile(g, 1.0, 1.0)
        x0 = np.array([2.0, 0.0, 0.0, -2.0])
        cost0 = profile_costs(g, prof, sigma=1.0, c=1.0, steps=400)[0]
        cost_x0 = profile_costs(g, prof, sigma=1.0, c=1.0, x0=x0, steps=400)[0]
        assert cost_x0 > cost0

    def test_grid_refinement(self):
        for g in (complete(2), cycle(6)):
            coarse = profile_costs(g, mf_profile(g, 1.0, 1.0), sigma=1.0, c=1.0, steps=1000)
            fine = profile_costs(g, mf_profile(g, 1.0, 1.0), sigma=1.0, c=1.0, steps=2000)
            assert np.abs(coarse - fine).max() <= 1e-8


class TestBestResponse:
    def test_isolated_single_player(self):
        g = single_vertex()
        c, T, sigma = 1.0, 1.0, 1.0
        prof = zero_profile(g, T=T)
        br = best_response(g, prof, 0, c=c, sigma=sigma, steps=2000)
        assert br.value == pytest.approx(0.5 * sigma**2 * math.log(1 + c * T), abs=1e-9)
        expected = c / (1 + c * (T - br.grid))
        assert np.abs(br.feedback[:, 0] - expected).max() <= 1e-9

    def test_fixed_point_of_equilibrium(self):
        g = cycle(6)
        k = build_kernel(g, 1.0, 1.0, 1.0)
        prof = equilibrium_profile(k)
        for i in (0, 2):
            br = best_response(g, prof, i, c=1.0, sigma=1.0, steps=2000)
            worst = 0.0
            for j in (0, 500, 1000, 1500, 2000):
                row = p_matrix(k, br.grid[j])[i]
                worst = max(worst, np.abs(br.feedback[j] - row).max())
            assert worst <= 1e-6

    def test_vanishing_horizon_value(self):
        # with T -> 0 there is no time to act or accumulate noise
        g = cycle(4)
        prof = mf_profile(g, c=1.0, T=1e-3)
        br = best_response(g, prof, 0, c=1.0, sigma=1.0, steps=100)
        assert abs(br.value) < 5e-3

    def test_blowup_capped(self):
        g = complete(2)
        destabilizing = custom_profile(g, T=1.0, matrix_fn=lambda t: -1e4 * np.eye(2))
        with pytest.raises(NumericError):
            best_response(g, destabilizing, 0, c=1.0, sigma=1.0, steps=200)

    def test_blowup_capped_spectral(self):
        g = complete(2)
        prof = equilibrium_profile(build_kernel(g, 1.0, 1.0, 1.0))
        destabilizing = dataclasses.replace(prof, rates=lambda t, lam: np.full(np.shape(t) + lam.shape, -1e4))
        with pytest.raises(NumericError):
            best_response(g, destabilizing, 0, c=1.0, sigma=1.0, steps=200)

    def test_zero_profile_at_large_c(self):
        # psi stays sqrt(c) l_i and z = 1 + c (T - t), so the value is
        # (sigma^2 / 2) |l_i|^2 log(1 + cT); here c dt = 0.5.
        g, c, sigma = cycle(20), 1000.0, 1.0
        br = best_response(g, zero_profile(g, T=1.0), 0, c=c, sigma=sigma, steps=2000)
        assert br.value == pytest.approx(0.5 * sigma**2 * 1.5 * math.log(1.0 + c), abs=1.5e-4)

    def test_unresolved_step_refused(self):
        # c dt = 5: z grows by a factor of 6 over the first step.
        g = cycle(20)
        with pytest.raises(NumericError, match="2000 steps do not resolve the profile"):
            best_response(g, zero_profile(g, T=1.0), 0, c=1e4, sigma=1.0, steps=2000)

    def test_invalid_player(self):
        g = cycle(4)
        prof = mf_profile(g, 1.0, 1.0)
        with pytest.raises(ParameterError):
            best_response(g, prof, 4, c=1.0, sigma=1.0, steps=100)
        for i in (1.5, True, np.float64(1.0)):  # not an integer index
            with pytest.raises(ParameterError):
                best_response(g, prof, i, 1.0, 1.0, steps=100)


class TestDeviationGap:
    @pytest.mark.parametrize("form", ["modal", "dense"])
    def test_is_cost_less_best_response(self, form):
        g = cycle(6)
        prof = mf_profile(g, 1.3, 1.0)
        if form == "dense":
            prof = custom_profile(g, 1.0, prof.at)
        x0 = np.random.default_rng(5).normal(size=g.n)
        costs = profile_costs(g, prof, 0.8, 1.3, x0, steps=200)
        players = nash_audit(g, prof, 1.3, 0.8, x0, steps=200)["players"]
        for i in (0, 4):
            assert players[i]["cost"] == costs[i]
            gap = costs[i] - best_response(g, prof, i, 1.3, 0.8, x0, steps=200).value
            assert players[i]["gap"] == pytest.approx(gap, rel=1e-13, abs=1e-15)

    def test_equilibrium_profile_no_gain(self):
        g = complete(10)
        k = build_kernel(g, 1.0, 1.0, 1.0)
        prof = equilibrium_profile(k)
        for player in nash_audit(g, prof, c=1.0, sigma=1.0, steps=2000)["players"]:
            assert abs(player["gap"]) <= 1e-6

    def test_mean_field_gap_within_certificate(self):
        g = cycle(20)
        prof = mf_profile(g, 1.0, 1.0)
        eps = epsilon_bounds(g, 1.0, 1.0, 1.0).per_vertex[0]
        gap = nash_audit(g, prof, c=1.0, sigma=1.0, steps=2000)["players"][0]["gap"]
        assert 0.0 < gap <= eps
        assert eps == pytest.approx(0.5 * math.sqrt(1.5), abs=1e-12)

    def test_mean_field_isolated_exact(self):
        g = single_vertex()
        prof = mf_profile(g, 1.0, 1.0)
        assert abs(nash_audit(g, prof, c=1.0, sigma=1.0, steps=2000)["players"][0]["gap"]) <= 1e-8


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
        prof = mf_profile(g, 1.0, 1.0)
        report = nash_audit(g, prof, c=1.0, sigma=1.0, steps=1000)
        assert report["all_satisfied"]
        assert len(report["players"]) == 10
        entry = report["players"][0]
        assert set(entry) == {"vertex", "cost", "best_response_value", "gap", "epsilon_bound", "satisfied"}
        assert entry["gap"] <= entry["epsilon_bound"]

    def test_equilibrium_audit_zero_bound(self):
        g = torus(3, 2)
        k = build_kernel(g, 1.0, 1.0, 1.0)
        report = nash_audit(g, equilibrium_profile(k), c=1.0, sigma=1.0, steps=1000)
        assert report["all_satisfied"]
        assert report["max_gap"] <= 1e-5


class TestRiccatiAgainstMonteCarlo:
    def test_k2_policy_evaluation(self):
        # Monte Carlo policy evaluation of the best-response feedback on a
        # single edge, independent of every solver in the package.
        g = complete(2)
        c = sigma = T = 1.0
        steps = 1000
        prof = mf_profile(g, c, T)
        br = best_response(g, prof, 0, c=c, sigma=sigma, steps=steps)

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
