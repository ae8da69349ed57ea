"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -s or
check `pytest -v` test outcomes); tolerances are pinned here and nowhere
else.
"""

import math
import time

import numpy as np
import pytest

from graphflock.cli import main as cli_main
from graphflock.cooperative import coop_kernel, coop_profile, coop_value
from graphflock.equilibrium import (
    build_kernel,
    covariance_bound,
    game_value,
    limit_variance,
    player_variance,
    riccati_residual,
    riccati_terminal_residual,
    state_law,
)
from graphflock.flow import cycle_closed_form, q_eval, solve_f
from graphflock.graphs import complete, cycle, erdos_renyi, random_regular, torus
from graphflock.montecarlo import (
    SimConfig,
    empirical_measure_test,
    ensemble_stats,
    simulate,
)
from graphflock.spectral import (
    empirical_measure,
    kesten_mckay_cdf,
    ks_distance,
    limit_measure,
)
from graphflock.strategies import (
    nash_audit,
    epsilon_bounds,
    equilibrium_profile,
    mf_profile,
    profile_costs,
)

HALF_LOG2 = 0.5 * math.log(2.0)


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_dense_value_convergence():
    worst = {}
    for n in (50, 100, 300):
        start = time.monotonic()
        k = build_kernel(complete(n), 1.0, 1.0, 1.0)
        err = abs(game_value(k) - HALF_LOG2)
        elapsed = time.monotonic() - start
        assert err <= 5.0 / n, f"complete({n}): |Val - log(2)/2| = {err} > {5.0 / n}"
        assert elapsed < 10.0, f"complete({n}) took {elapsed:.1f}s"
        worst[n] = err
    report("criterion 1", f"dense value errors {worst} all within 5/n, each under 10s")


def test_criterion_02_dense_variance_curve():
    mu = limit_measure("dirac_minus_one")
    schedule = solve_f(mu, 1.0, 1.0)
    ts = np.linspace(0.0, 1.0, 101)
    closed = ts * (1.0 + (1.0 - ts)) / 2.0
    worst_limit = max(
        abs(limit_variance(schedule, 1.0, float(t)) - c) for t, c in zip(ts, closed)
    )
    assert worst_limit <= 1e-10

    k = build_kernel(complete(500), 1.0, 1.0, 1.0)
    worst_finite = max(
        abs(player_variance(k, float(t)) - c) for t, c in zip(ts, closed)
    )
    assert worst_finite <= 0.01
    report(
        "criterion 2",
        f"limit curve max err {worst_limit:.2e} <= 1e-10; "
        f"complete(500) max gap {worst_finite:.4f} <= 0.01",
    )


def test_criterion_03_cycle_closed_form():
    mu = limit_measure("cycle_limit")
    schedule = solve_f(mu, 1.0, 1.0)
    worst_f = max(
        abs(schedule.value(t) - cycle_closed_form(1.0, float(t)))
        for t in np.linspace(0.0, 1.0, 101)
    )
    assert worst_f <= 1e-8
    worst_q = 0.0
    for x in (0.1, 1.0, 4.0, 10.0):
        q, qp = q_eval(mu, x)
        worst_q = max(worst_q, abs(q - 0.5 * (math.sqrt(1 + 2 * x) + x + 1)))
    assert worst_q <= 1e-8
    report("criterion 3", f"schedule gap {worst_f:.2e} <= 1e-8; Q gap {worst_q:.2e} <= 1e-8")


NASH_GRAPHS = [complete(5), cycle(6), torus(3, 2), complete(2)]


def test_criterion_04_riccati_and_nash_verification():
    worst_interior = worst_boundary = worst_gap = 0.0
    for g in NASH_GRAPHS:
        k = build_kernel(g, 1.0, 1.0, 1.0)
        for t in np.linspace(0.08, 0.92, 10):
            worst_interior = max(worst_interior, riccati_residual(k, 0, float(t)))
        for i in range(g.n):
            worst_boundary = max(worst_boundary, riccati_terminal_residual(k, i))
        audit = nash_audit(g, equilibrium_profile(k), c=1.0, sigma=1.0)
        worst_gap = max(worst_gap, max(abs(p["gap"]) for p in audit["players"]))
    assert worst_interior <= 1e-6
    assert worst_boundary <= 1e-9
    assert worst_gap <= 1e-5
    report(
        "criterion 4",
        f"Riccati interior {worst_interior:.2e} <= 1e-6, boundary {worst_boundary:.2e} <= 1e-9, "
        f"equilibrium deviation gap {worst_gap:.2e} <= 1e-5",
    )


def test_criterion_05_epsilon_nash_certificates():
    start = time.monotonic()
    graphs = [complete(10), cycle(20), torus(4, 2), erdos_renyi(50, 0.3, seed=7)]
    worst_ratio = 0.0
    for g in graphs:
        prof = mf_profile(g, 1.0, 1.0)
        eps = epsilon_bounds(g, 1.0, 1.0, 1.0).per_vertex
        audit = nash_audit(g, prof, c=1.0, sigma=1.0, steps=2000)
        for entry in audit["players"]:
            v, gap = entry["vertex"], entry["gap"]
            assert entry["epsilon_bound"] == pytest.approx(eps[v], abs=0)
            if g.degrees[v] == 0:
                assert eps[v] == 0.0
                assert abs(gap) <= 1e-8
            else:
                assert gap <= eps[v], f"vertex {v}: gap {gap} > eps {eps[v]}"
                worst_ratio = max(worst_ratio, gap / eps[v])
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"epsilon-Nash audit took {elapsed:.1f}s"
    report(
        "criterion 5",
        f"all measured gaps within certificates (worst gap/eps = {worst_ratio:.3f}), "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_06_correlation_decay():
    checked = 0
    for g in (cycle(50), torus(10, 2)):
        k = build_kernel(g, 1.0, 1.0, 1.0)
        gamma = k.c * k.T / (1 + k.c * k.T)
        assert gamma == 0.5
        law = state_law(k, 1.0)
        for u in range(g.n):
            for v in range(g.n):
                bound = covariance_bound(k, u, v, 1.0)
                assert abs(law.covariance[u, v]) <= bound + 1e-12, (
                    f"{g.construction}: |Cov({u},{v})| = {abs(law.covariance[u, v])} "
                    f"exceeds bound {bound}"
                )
                checked += 1
    report("criterion 6", f"{checked} vertex pairs, zero bound violations at gamma=0.5")


def test_criterion_07_monte_carlo_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for g in (complete(10), cycle(20)):
        k = build_kernel(g, 1.0, 1.0, 1.0)
        prof = equilibrium_profile(k)
        cfg = SimConfig(n_paths=10_000, dt=1.0 / 500, seed=101, record_times=(1.0,))
        ens = simulate(g, prof, 1.0, cfg)
        pairs = []
        while len(pairs) < 5:
            u, v = int(rng.integers(g.n)), int(rng.integers(g.n))
            if u != v and (u, v) not in pairs:
                pairs.append((u, v))
        stats = ensemble_stats(ens, 1.0, pairs=pairs)
        law = state_law(k, 1.0)
        for i in range(g.n):
            assert abs(stats.mean[i] - 0.0) <= 3 * stats.mean_se[i]
            assert abs(stats.variance[i] - law.covariance[i, i]) <= 3 * stats.variance_se[i]
        for (u, v), (cov, se) in stats.covariances.items():
            assert abs(cov - law.covariance[u, v]) <= 3 * se
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"Monte Carlo agreement took {elapsed:.1f}s"
    report("criterion 7", f"moments within 3 SE on both graphs, runtime {elapsed:.1f}s < 60s")


def test_criterion_08_concentration():
    bounds = {}
    for g in (complete(100), cycle(200)):
        k = build_kernel(g, 1.0, 1.0, 1.0)
        prof = equilibrium_profile(k)
        cfg = SimConfig(n_paths=10_000, dt=1.0 / 500, seed=202, record_times=(1.0,))
        ens = simulate(g, prof, 1.0, cfg)
        law = state_law(k, 1.0)
        outcome = empirical_measure_test(ens, 1.0, "tanh", law.covariance)
        assert outcome.passed, (
            f"{g.construction}({g.n}): sample variance {outcome.sample_variance} "
            f"exceeds bound {outcome.bound} + 3*{outcome.standard_error}"
        )
        bounds[(g.construction, g.n)] = outcome.bound
    for n in (50, 200):
        k = build_kernel(cycle(n), 1.0, 1.0, 1.0)
        law = state_law(k, 1.0)
        bounds[("cycle_analytic", n)] = float(np.abs(law.covariance).sum()) / n**2
    assert bounds[("cycle_analytic", 200)] < bounds[("cycle_analytic", 50)]
    report(
        "criterion 8",
        "sample variance within Poincare bound + 3 SE on complete(100) and cycle(200); "
        f"cycle bound decreases {bounds[('cycle_analytic', 50)]:.2e} -> "
        f"{bounds[('cycle_analytic', 200)]:.2e}",
    )


def test_criterion_09_spectral_limits():
    mu = empirical_measure(random_regular(2000, 3, seed=3))
    dist = ks_distance(mu, lambda pts: kesten_mckay_cdf(3, pts))
    assert dist <= 0.05, f"KS distance {dist} > 0.05"
    for g in (complete(50), cycle(200), torus(10, 2), random_regular(2000, 3, seed=3)):
        m = empirical_measure(g)
        assert abs(m.mean() + 1.0) <= 1e-10
        assert abs(m.variance() - 1.0 / g.degrees[0]) <= 1e-10
    report("criterion 9", f"KS distance {dist:.4f} <= 0.05; mean/variance identities at 1e-10")


def _property_suite_measures():
    return [
        ("dirac", limit_measure("dirac_minus_one")),
        ("cycle_limit", limit_measure("cycle_limit")),
        ("torus_2", limit_measure("torus_limit", d=2)),
        ("torus_4", limit_measure("torus_limit", d=4)),
        ("kesten_mckay_3", limit_measure("kesten_mckay", d=3)),
        ("empirical_cycle_10", empirical_measure(cycle(10))),
    ]


def test_criterion_10_ode_property_suite():
    sigma = c = T = 1.0
    dirac = limit_measure("dirac_minus_one")
    dirac_schedule = solve_f(dirac, c, T)
    for name, mu in _property_suite_measures():
        var = mu.variance()
        xs = np.linspace(0.0, c * T, 41)
        q_prev = None
        for x in xs:
            q, qp = q_eval(mu, float(x))
            assert 1.0 - 1e-10 <= q <= 1.0 + x + 1e-10
            assert 0.0 < qp <= 1.0 + 1e-10
            assert qp >= 1.0 - (x + 0.5 * x**2) * var - 1e-8
            if q_prev is not None:
                slope = (qp - q_prev) / (xs[1] - xs[0])
                assert -4.0 - 1e-6 <= slope <= 1e-8
            q_prev = qp
        schedule = solve_f(mu, c, T)
        t = np.linspace(0.0, T, 2001)
        f = schedule.value(t)
        assert np.all(f >= -1e-12) and np.all(f <= c * t + 1e-9)
        assert np.all(f >= c * t - (0.5 * c**2 * t**2 + c**3 * t**3 / 6) * var - 1e-9)

        assert limit_variance(schedule, sigma, 0.0) == 0.0
        h = 1e-3
        v_h = limit_variance(schedule, sigma, h)
        assert abs(v_h / h - sigma**2) <= 1e-3, f"{name}: V'(0) check"

        f_T = schedule.value(T)
        q_T = float(np.exp(mu.weights @ np.log1p(-f_T * mu.nodes)))
        second_exact = -2.0 * sigma**2 * schedule.rhs(f_T) ** 2 / (c * q_T)

        def g_fn(hh):
            return (limit_variance(schedule, sigma, hh) - sigma**2 * hh) / hh**2

        h1, h2 = 1e-2, 1e-3
        richardson = (h1 * g_fn(h2) - h2 * g_fn(h1)) / (h1 - h2)
        assert abs(2.0 * richardson - second_exact) <= 1e-2, f"{name}: V''(0) check"

        for t_chk in np.linspace(0.0, T, 21):
            lhs = limit_variance(schedule, sigma, float(t_chk))
            rhs = limit_variance(dirac_schedule, sigma, float(t_chk))
            assert lhs >= rhs - 1e-12, f"{name}: variance domination at t={t_chk}"
    report("criterion 10", "Q/f/V property bounds hold for all six measures")


def test_criterion_11_cooperative_consistency():
    k4 = coop_kernel(cycle(4), 1.0, 1.0, 1.0)
    exact = (2.0 * math.log(2.0) + math.log(5.0)) / 8.0
    err_value = abs(coop_value(k4) - exact)
    assert err_value <= 1e-9
    worst_policy = 0.0
    for g in (complete(2), cycle(6)):
        k = coop_kernel(g, 1.0, 1.0, 1.0)
        costs = profile_costs(g, coop_profile(k), sigma=1.0, c=1.0, steps=2000)
        worst_policy = max(worst_policy, abs(costs.mean() - coop_value(k)))
    assert worst_policy <= 1e-9
    report(
        "criterion 11",
        f"cycle(4) closed form err {err_value:.2e} <= 1e-9; "
        f"policy-evaluation gap {worst_policy:.2e} <= 1e-9",
    )


def test_criterion_12_figure_reproduction(tmp_path, capsys):
    def rows_of(command):
        out = tmp_path / f"{command}.csv"
        assert cli_main([command, "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        return header, data

    header1, fig1 = rows_of("fig1")
    for family in ("dense", "cycle"):
        cols = [header1.index(f"{family}_c{c:g}") for c in (0.5, 1, 2, 5)]
        interior = fig1[1:]
        for lo, hi in zip(cols[1:], cols[:-1]):
            assert np.all(interior[:, lo] < interior[:, hi] + 1e-12), (
                f"fig1: {family} variance not decreasing in c"
            )

    header2, fig2 = rows_of("fig2")
    interior = fig2[1:]
    d1, d2, d4, dense = (header2.index(c) for c in ("torus_d1", "torus_d2", "torus_d4", "dense"))
    assert np.all(interior[:, d1] > interior[:, d2])
    assert np.all(interior[:, d2] > interior[:, d4])
    assert np.all(interior[:, d4] > interior[:, dense])

    header3, fig3 = rows_of("fig3")
    comp, coop = header3.index("competitive"), header3.index("cooperative")
    assert np.all(fig3[1:, coop] <= fig3[1:, comp] + 1e-12)
    report(
        "criterion 12",
        "fig1 monotone in c, fig2 decreasing in torus dimension, fig3 cooperative below competitive",
    )
