import dataclasses
import hashlib
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from graphflock.cooperative import coop_kernel, coop_profile
from graphflock.equilibrium import build_kernel, p_matrix, state_law
from graphflock.errors import NumericError, ParameterError
from graphflock.graphs import complete, cycle, edge_list_graph, erdos_renyi, torus
from graphflock import montecarlo
from graphflock.montecarlo import (
    DRAW_RING_BUDGET,
    SimConfig,
    draw_threads,
    empirical_measure_test,
    ensemble_stats,
    simulate,
)
from graphflock.strategies import LinearProfile, custom_profile, equilibrium_profile, mf_profile, zero_profile
from graphflock.threads import available_cores, thread_count


def single_vertex():
    return edge_list_graph([], n=1, one_based=False)


class TestDeterminism:
    def test_bit_identical_replay(self):
        g = cycle(5)
        prof = mf_profile(g, 1.0, 1.0, steps=100)
        cfg = SimConfig(n_paths=64, dt=0.01, seed=7, record_times=(0.5, 1.0))
        a = simulate(g, prof, 1.0, cfg)
        b = simulate(g, prof, 1.0, cfg)
        for t in a.times:
            assert np.array_equal(a.states[t], b.states[t])

    def test_recording_does_not_change_draws(self):
        g = cycle(5)
        prof = mf_profile(g, 1.0, 1.0, steps=100)
        full = simulate(g, prof, 1.0, SimConfig(64, 0.01, 7, (0.25, 1.0)))
        only_end = simulate(g, prof, 1.0, SimConfig(64, 0.01, 7, (1.0,)))
        assert np.array_equal(full.states[1.0], only_end.states[1.0])

    def test_feedback_is_not_stored_per_step(self):
        # 500 dense 200 x 200 feedback matrices would take 153 MB.
        g = cycle(200)
        prof = equilibrium_profile(build_kernel(g, 1.0, 1.0, 1.0))
        tracemalloc.start()
        try:
            simulate(g, prof, 1.0, SimConfig(n_paths=10, dt=1 / 500))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("make", [lambda g: mf_profile(g, 1.0, 1.0, 100), lambda g: zero_profile(g, 1.0, 100)])
    def test_scalar_profile_matches_dense_step(self, make):
        # k * x must reproduce x @ (k I)^T bit for bit.
        g = cycle(5)
        prof = make(g)
        cfg = SimConfig(n_paths=64, dt=0.01, seed=7, record_times=(0.5, 1.0))
        scalar = simulate(g, prof, 1.0, cfg)
        dense = simulate(g, custom_profile(g, 1.0, prof.at, 100), 1.0, cfg)
        for t in scalar.times:
            assert np.array_equal(scalar.states[t], dense.states[t])

    def test_seed_changes_draws(self):
        g = cycle(5)
        prof = mf_profile(g, 1.0, 1.0, steps=100)
        a = simulate(g, prof, 1.0, SimConfig(16, 0.01, 1, (1.0,)))
        b = simulate(g, prof, 1.0, SimConfig(16, 0.01, 2, (1.0,)))
        assert not np.array_equal(a.states[1.0], b.states[1.0])


def _digest(e):
    h = hashlib.sha256()
    for t in e.times:
        h.update(np.ascontiguousarray(e.states[t]).tobytes())
    return h.hexdigest()


def _refuse(t):
    raise AssertionError("the dense feedback matrix was evaluated")


class TestDrawPool:
    @pytest.mark.parametrize("kind", ["equilibrium", "mean_field"])
    def test_bit_identical_for_any_pool_size(self, monkeypatch, kind):
        g = cycle(12)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=100)
        prof = equilibrium_profile(k) if kind == "equilibrium" else mf_profile(g, 1.0, 1.0, 100)
        cfg = SimConfig(n_paths=40, dt=0.01, seed=3, record_times=(0.0, 0.37, 1.0))
        ensembles = []
        for workers in ("1", "2"):
            monkeypatch.setenv("LG_THREADS", workers)
            ensembles.append(simulate(g, prof, 1.0, cfg))
        for t in cfg.record_times:
            assert np.array_equal(ensembles[0].at(t), ensembles[1].at(t))

    @pytest.mark.parametrize("kind", ["equilibrium", "mean_field"])
    def test_oversubscribed_pool_under_fast_switching(self, monkeypatch, kind):
        # More draw threads than cores, switching every microsecond: a block
        # overwritten before it is consumed would change the ensemble.
        g = cycle(10)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=100)
        prof = equilibrium_profile(k) if kind == "equilibrium" else mf_profile(g, 1.0, 1.0, 100)
        cfg = SimConfig(n_paths=30, dt=0.005, seed=8, record_times=(0.5, 1.0))
        monkeypatch.setattr(montecarlo, "draw_threads", lambda block_bytes: 1)
        reference = simulate(g, prof, 1.0, cfg)
        monkeypatch.setattr(montecarlo, "draw_threads", lambda block_bytes: 2 * available_cores() + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            stressed = simulate(g, prof, 1.0, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert _digest(stressed) == _digest(reference)

    def test_scalar_ensembles_match_pinned_digests(self):
        # Digests of the ensembles drawn before the draws moved to a pool:
        # the scalar path's values must not change.
        g = erdos_renyi(12, 0.4, seed=5)
        cfg = SimConfig(n_paths=48, dt=0.01, seed=9, record_times=(0.0, 0.5, 1.0))
        mean_field = simulate(g, mf_profile(g, 2.0, 1.0, 100), 0.7, cfg)
        zero = simulate(g, zero_profile(g, 1.0, 100), 1.3, cfg)
        assert _digest(mean_field) == "794202845e7e7e9e8e3a3b8b733fe56b5b2b17c76d6cb2b02024e888660fdb90"
        assert _digest(zero) == "e51ae3adea1cd2dc1a947a24d529991fe23108feb4c9e851102fe1696a0694a7"

    def test_spectral_ensembles_match_pinned_digests(self):
        # Digests of the ensembles drawn when the eigen-frame evaluated the
        # rates one step at a time: the tabulated rates must not change them.
        cfg = SimConfig(n_paths=48, dt=0.01, seed=9, record_times=(0.0, 0.5, 1.0))
        g, h = cycle(12), torus(3, 2)
        equilibrium = simulate(g, equilibrium_profile(build_kernel(g, 2.0, 1.0, 0.7, steps=100)), 0.7, cfg)
        coop = simulate(h, coop_profile(coop_kernel(h, 1.5, 1.0, 1.3), 100), 1.3, cfg)
        assert _digest(equilibrium) == "388f925716368c64c4acd68d2c264c30440066ae50c802c795562670306b6eed"
        assert _digest(coop) == "91cf04490d4726fb68cd1cbb3f95ce572dce18ada030d31a13a42b85cc184b78"

    @pytest.mark.parametrize("kind", ["equilibrium", "mean_field"])
    def test_rates_are_tabulated_once(self, kind):
        g = cycle(6)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=100)
        prof = equilibrium_profile(k) if kind == "equilibrium" else mf_profile(g, 1.0, 1.0, 100)
        calls = []

        def rates(t):
            calls.append(np.copy(t))
            return prof.rates(t)

        simulate(g, dataclasses.replace(prof, rates=rates), 1.0, SimConfig(8, 0.01, 2, (0.5, 1.0)))
        assert len(calls) == 1 and np.array_equal(calls[0], np.arange(100) * 0.01)

    def test_lg_threads_sizes_the_pool(self, monkeypatch):
        monkeypatch.delenv("LG_THREADS", raising=False)
        assert thread_count() == available_cores()
        monkeypatch.setenv("LG_THREADS", "1")
        assert thread_count() == 1
        monkeypatch.setenv("LG_THREADS", str(10**9))
        assert thread_count() == available_cores()

    def test_ring_budget_caps_the_pool(self, monkeypatch):
        monkeypatch.setenv("LG_THREADS", str(10**9))
        assert draw_threads(8) == available_cores()
        assert draw_threads(DRAW_RING_BUDGET // 3) == min(2, available_cores())
        assert draw_threads(DRAW_RING_BUDGET) == 1

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    def test_bad_lg_threads_raises(self, monkeypatch, value):
        monkeypatch.setenv("LG_THREADS", value)
        with pytest.raises(ParameterError, match="LG_THREADS"):
            thread_count()


class TestEigenFrame:
    @pytest.mark.parametrize("g", [cycle(20), torus(3, 2), complete(10)], ids=["cycle20", "torus3_2", "complete10"])
    def test_spectral_form_matches_dense_profile(self, g):
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=200)
        prof = equilibrium_profile(k)
        for t in (0.0, 0.3, 0.71, 1.0):
            dense = prof.eigen.reconstruct(prof.rates(t))
            assert np.abs(dense - p_matrix(k, t)).max() <= 1e-12

    def test_never_builds_the_feedback_matrix(self, monkeypatch):
        g = cycle(8)
        prof = equilibrium_profile(build_kernel(g, 1.0, 1.0, 1.0, steps=100))
        monkeypatch.setattr(LinearProfile, "at", lambda self, t: _refuse(t))
        ens = simulate(g, prof, 1.0, SimConfig(16, 0.01, 4, (0.5, 1.0)))
        assert np.isfinite(ens.at(1.0)).all()

    def test_explosion_names_step_and_path(self):
        g = complete(2)
        prof = dataclasses.replace(
            equilibrium_profile(build_kernel(g, 1.0, 1.0, 1.0, steps=100)),
            rates=lambda t: np.full(np.shape(t) + (2,), -1e6),
        )
        with pytest.raises(NumericError, match=r"step \d+, path \d+"):
            simulate(g, prof, 1.0, SimConfig(8, 0.01, 0, (1.0,)))

    def test_seed_outside_philox_keys(self):
        g = cycle(3)
        prof = zero_profile(g, T=1.0, steps=100)
        for seed in (-1, 2**128):
            with pytest.raises(ParameterError, match="seed"):
                simulate(g, prof, 1.0, SimConfig(10, 0.01, seed, (1.0,)))


class TestAgainstAnalyticLaws:
    def test_zero_profile_brownian(self):
        g = cycle(3)
        prof = zero_profile(g, T=1.0, steps=500)
        ens = simulate(g, prof, 1.3, SimConfig(10_000, 1.0 / 500, 3, (1.0,)))
        stats = ensemble_stats(ens, 1.0)
        target = 1.3**2
        for v, se in zip(stats.variance, stats.variance_se):
            assert abs(v - target) <= 3 * se

    def test_sigma_zero_is_deterministic(self):
        g = cycle(3)
        prof = zero_profile(g, T=1.0, steps=100)
        ens = simulate(g, prof, 0.0, SimConfig(50, 0.01, 5, (1.0,)))
        assert np.abs(ens.states[1.0]).max() == 0.0

    def test_equilibrium_moments_complete10(self):
        g = complete(10)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=500)
        prof = equilibrium_profile(k)
        ens = simulate(g, prof, 1.0, SimConfig(4000, 1.0 / 500, 11, (1.0,)))
        pairs = [(0, 1), (2, 7)]
        stats = ensemble_stats(ens, 1.0, pairs=pairs)
        law = state_law(k, 1.0)
        for i in range(10):
            assert abs(stats.mean[i]) <= 3 * stats.mean_se[i] + 1e-12
            assert abs(stats.variance[i] - law.covariance[i, i]) <= 3 * stats.variance_se[i]
        for (u, v), (cov, se) in stats.covariances.items():
            assert abs(cov - law.covariance[u, v]) <= 3 * se

    def test_mean_field_iid_ou(self):
        g = complete(8)
        prof = mf_profile(g, 1.0, 1.0, steps=500)
        ens = simulate(g, prof, 1.0, SimConfig(10_000, 1.0 / 500, 13, (1.0,)))
        stats = ensemble_stats(ens, 1.0, pairs=[(0, 5)])
        target = 1.0 / (1.0 + 1.0)  # sigma^2 T / (1 + cT)
        for v, se in zip(stats.variance, stats.variance_se):
            assert abs(v - target) <= 3 * se + 2e-3  # 2e-3 covers the O(dt) bias
        cov, se = stats.covariances[(0, 5)]
        assert abs(cov) <= 3 * se

    def test_cycle20_distant_pair_within_decay_bound(self):
        from graphflock.equilibrium import covariance_bound

        g = cycle(20)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=500)
        prof = equilibrium_profile(k)
        ens = simulate(g, prof, 1.0, SimConfig(4000, 1.0 / 500, 37, (1.0,)))
        stats = ensemble_stats(ens, 1.0, pairs=[(0, 5)])  # distance 5
        cov, se = stats.covariances[(0, 5)]
        assert abs(cov) <= covariance_bound(k, 0, 5, 1.0) + 3 * se

    def test_weak_order_one_on_k2(self):
        # The Euler chain has an exact covariance recursion
        # V_{j+1} = A_j V A_j^T + sigma^2 dt I; its gap to the continuous-time
        # law must scale like dt.
        g = complete(2)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=1000)
        prof = equilibrium_profile(k)
        law = state_law(k, 1.0)

        def chain_cov(steps):
            dt = 1.0 / steps
            v = np.zeros((2, 2))
            for j in range(steps):
                a = np.eye(2) - dt * prof.at(j * dt)
                v = a @ v @ a.T + dt * np.eye(2)
            return v

        err = [np.abs(chain_cov(s) - law.covariance).max() for s in (50, 100, 200)]
        assert 1.6 <= err[0] / err[1] <= 2.4
        assert 1.6 <= err[1] / err[2] <= 2.4

        ens = simulate(g, prof, 1.0, SimConfig(10_000, 1.0 / 200, 17, (1.0,)))
        stats = ensemble_stats(ens, 1.0)
        chain = chain_cov(200)
        for i in range(2):
            assert abs(stats.variance[i] - chain[i, i]) <= 3 * stats.variance_se[i]

    def test_chaos_proxy_on_cycles(self):
        # Uniformly random distinct vertices sit far apart, so their true
        # correlation decays with n; at feasible path counts the sampled
        # correlation is only resolvable as "consistent with the analytic
        # value", which is itself consistent with zero.
        rng = np.random.default_rng(2024)
        analytic = {}
        for n in (50, 200):
            g = cycle(n)
            k = build_kernel(g, 1.0, 1.0, 1.0, steps=500)
            prof = equilibrium_profile(k)
            ens = simulate(g, prof, 1.0, SimConfig(4000, 1.0 / 500, 19, (1.0,)))
            u = int(rng.integers(n))
            v = int((u + rng.integers(1, n)) % n)
            stats = ensemble_stats(ens, 1.0, pairs=[(u, v)])
            cov, se = stats.covariances[(u, v)]
            law = state_law(k, 1.0)
            assert abs(cov - law.covariance[u, v]) <= 3 * se
            assert abs(cov) <= 3 * se  # indistinguishable from independence
            denom = math.sqrt(law.covariance[u, u] * law.covariance[v, v])
            analytic[n] = abs(law.covariance[u, v]) / denom
        assert analytic[200] < analytic[50]


class TestValidation:
    def test_dt_must_divide_horizon(self):
        g = cycle(3)
        prof = zero_profile(g, T=1.0, steps=100)
        with pytest.raises(ParameterError):
            simulate(g, prof, 1.0, SimConfig(10, 0.3, 0, (1.0,)))

    def test_record_time_must_hit_grid(self):
        g = cycle(3)
        prof = zero_profile(g, T=1.0, steps=100)
        with pytest.raises(ParameterError):
            simulate(g, prof, 1.0, SimConfig(10, 0.01, 0, (0.005,)))

    def test_stats_need_recorded_time(self):
        g = cycle(3)
        prof = zero_profile(g, T=1.0, steps=100)
        ens = simulate(g, prof, 1.0, SimConfig(10, 0.01, 0, (1.0,)))
        with pytest.raises(ParameterError):
            ensemble_stats(ens, 0.5)

    def test_pairs_must_be_vertex_indices(self):
        g = cycle(3)
        ens = simulate(g, zero_profile(g, T=1.0, steps=100), 1.0, SimConfig(10, 0.01, 3, (1.0,)))
        for pair in ((0.5, 1), (True, 1), (np.float64(1.0), 2), (0, 3), (-1, 0)):
            with pytest.raises(ParameterError, match="is not a valid index"):
                ensemble_stats(ens, 1.0, pairs=[pair])
        assert set(ensemble_stats(ens, 1.0, pairs=[(np.int64(0), 2)]).covariances) == {(0, 2)}

    def test_explosion_detected(self):
        g = complete(2)
        runaway = custom_profile(g, T=1.0, matrix_fn=lambda t: -1e6 * np.eye(2), steps=100)
        with pytest.raises(NumericError, match="path"):
            simulate(g, runaway, 1.0, SimConfig(8, 0.01, 0, (1.0,)))

    @pytest.mark.parametrize("paths", [1, 2])
    def test_stats_need_three_paths(self, paths):
        g = cycle(3)
        ensemble = simulate(g, zero_profile(g, 1.0, 100), 1.0, SimConfig(n_paths=paths, dt=0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ParameterError, match="3 paths"):
                ensemble_stats(ensemble, 1.0)

    def test_jackknife_sanity(self):
        g = cycle(3)
        prof = zero_profile(g, T=1.0, steps=200)
        ens = simulate(g, prof, 1.0, SimConfig(5000, 1.0 / 200, 23, (1.0,)))
        stats = ensemble_stats(ens, 1.0)
        samples = ens.states[1.0]
        assert np.allclose(stats.mean_se, samples.std(axis=0, ddof=1) / math.sqrt(5000))
        # for Gaussian data, SE(sample variance) ~ var * sqrt(2/(P-1))
        theory = stats.variance * math.sqrt(2.0 / 4999)
        assert np.all(stats.variance_se / theory > 0.8)
        assert np.all(stats.variance_se / theory < 1.25)


class TestConcentration:
    def test_single_player_bound_is_state_variance(self):
        g = single_vertex()
        prof = zero_profile(g, T=1.0, steps=200)
        sigma = 1.0
        ens = simulate(g, prof, sigma, SimConfig(5000, 1.0 / 200, 29, (1.0,)))
        report = empirical_measure_test(ens, 1.0, "tanh", np.array([[sigma**2 * 1.0]]))
        assert report.bound == pytest.approx(1.0, abs=1e-12)
        assert report.passed

    @pytest.mark.parametrize("h", ["tanh", "clipped_identity", "cosine"])
    def test_complete30_concentrates(self, h):
        g = complete(30)
        k = build_kernel(g, 1.0, 1.0, 1.0, steps=500)
        prof = equilibrium_profile(k)
        ens = simulate(g, prof, 1.0, SimConfig(4000, 1.0 / 500, 31, (1.0,)))
        law = state_law(k, 1.0)
        report = empirical_measure_test(ens, 1.0, h, law.covariance)
        assert report.passed
        assert report.bound < 0.2

    def test_unknown_test_function(self):
        g = single_vertex()
        prof = zero_profile(g, T=1.0, steps=100)
        ens = simulate(g, prof, 1.0, SimConfig(100, 0.01, 0, (1.0,)))
        with pytest.raises(ParameterError):
            empirical_measure_test(ens, 1.0, "sine", np.array([[1.0]]))
