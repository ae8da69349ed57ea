import numpy as np
import pytest

from graphflock.equilibrium import limit_variance
from graphflock.errors import ParameterError
from graphflock.flow import _phi, cycle_closed_form, q_eval, solve_f, solve_f_sweep
from graphflock.graphs import cycle
from graphflock.spectral import empirical_measure, limit_measure


def measure_family():
    return {
        "dirac": limit_measure("dirac_minus_one"),
        "cycle_limit": limit_measure("cycle_limit"),
        "torus_2": limit_measure("torus_limit", d=2),
        "torus_4": limit_measure("torus_limit", d=4),
        "kesten_mckay_3": limit_measure("kesten_mckay", d=3),
        "empirical_cycle_10": empirical_measure(cycle(10)),
    }


FAMILY = measure_family()


def cycle_q_closed(x):
    return 0.5 * (np.sqrt(1 + 2 * x) + x + 1)


def cycle_qprime_closed(x):
    return 0.5 * (1 / np.sqrt(1 + 2 * x) + 1)


class TestQEval:
    def test_dirac_is_one_plus_x(self):
        mu = FAMILY["dirac"]
        for x in (0.0, 0.5, 2.0, 9.0):
            q, qp = q_eval(mu, x)
            assert abs(q - (1 + x)) < 1e-14
            assert abs(qp - 1.0) < 1e-14

    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_at_zero(self, name):
        q, qp = q_eval(FAMILY[name], 0.0)
        assert abs(q - 1.0) < 1e-12
        assert abs(qp - 1.0) < 1e-10

    def test_cycle_limit_at_4(self):
        q, qp = q_eval(FAMILY["cycle_limit"], 4.0)
        assert abs(q - 4.0) < 1e-8
        assert abs(qp - 2.0 / 3.0) < 1e-8

    def test_cycle_limit_closed_form(self):
        mu = FAMILY["cycle_limit"]
        for x in (0.1, 1.0, 4.0, 10.0):
            q, qp = q_eval(mu, x)
            assert abs(q - cycle_q_closed(x)) < 1e-8
            assert abs(qp - cycle_qprime_closed(x)) < 1e-8

    def test_cycle_limit_vs_dense_trapezoid(self):
        # independent oracle: periodic trapezoid rule on the defining integral
        u = np.linspace(0.0, 1.0, 20001)[:-1]
        lam = np.cos(2 * np.pi * u) - 1.0
        for x in (0.7, 4.0):
            q_ref = np.exp(np.mean(np.log1p(-x * lam)))
            qp_ref = q_ref * np.mean(-lam / (1 - x * lam))
            q, qp = q_eval(FAMILY["cycle_limit"], x)
            assert abs(q - q_ref) < 1e-9
            assert abs(qp - qp_ref) < 1e-9

    def test_negative_x_rejected(self):
        with pytest.raises(ParameterError):
            q_eval(FAMILY["dirac"], -0.1)

    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_envelopes_and_lipschitz(self, name):
        mu = FAMILY[name]
        var = mu.variance()
        xs = np.linspace(0.0, 6.0, 121)
        qps = []
        for x in xs:
            q, qp = q_eval(mu, float(x))
            assert 1.0 - 1e-10 <= q <= 1.0 + x + 1e-10
            assert 0.0 < qp <= 1.0 + 1e-10
            assert qp >= 1.0 - (x + 0.5 * x**2) * var - 1e-8
            qps.append(qp)
        slopes = np.diff(qps) / np.diff(xs)
        assert np.all(slopes <= 1e-8)          # Q' nonincreasing (Q'' <= 0)
        assert np.all(slopes >= -4.0 - 1e-6)   # Q'' >= -4


class TestSolveF:
    def test_dirac_linear(self):
        s = solve_f(FAMILY["dirac"], c=1.3, T=2.0, steps=400)
        assert np.allclose(s.f_values, 1.3 * s.grid, atol=1e-12)
        assert s.value(0.77) == pytest.approx(1.3 * 0.77, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_starts_at_zero(self, name):
        s = solve_f(FAMILY[name], c=1.0, T=1.0, steps=200)
        assert s.f_values[0] == 0.0

    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_envelope_and_concavity(self, name):
        mu = FAMILY[name]
        s = solve_f(mu, c=2.0, T=1.5, steps=300)
        t, f = s.grid, s.f_values
        assert np.all(f >= -1e-12) and np.all(f <= 2.0 * t + 1e-9)
        diffs = np.diff(f)
        assert np.all(diffs > 0)
        assert np.all(np.diff(diffs) <= 1e-10)
        var = mu.variance()
        lower = 2.0 * t - (0.5 * 4.0 * t**2 + 8.0 * t**3 / 6.0) * var
        assert np.all(f >= lower - 1e-9)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            solve_f(FAMILY["dirac"], c=0.0, T=1.0)
        with pytest.raises(ParameterError):
            solve_f(FAMILY["dirac"], c=1.0, T=1.0, steps=50)

    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_refinement_convergence(self, name):
        mu = FAMILY[name]
        coarse = solve_f(mu, c=1.0, T=1.0, steps=4000).f_values[-1]
        fine = solve_f(mu, c=1.0, T=1.0, steps=8000).f_values[-1]
        assert abs(coarse - fine) <= 1e-10

    def test_stability_cycle_sequence(self):
        # empirical cycle measures converge to the cycle limit; the solved
        # schedules must converge uniformly along the sequence.  For n >= 50
        # the equispaced cosine spectrum is already converged to machine
        # precision, so strict decrease is only visible at small n.
        limit = solve_f(FAMILY["cycle_limit"], c=1.0, T=1.0, steps=500)

        def gap(n):
            s = solve_f(empirical_measure(cycle(n)), c=1.0, T=1.0, steps=500)
            return np.abs(s.f_values - limit.f_values).max()

        small = [gap(n) for n in (3, 5, 9)]
        assert small[0] > small[1] > small[2]
        floor = 1e-12
        large = [gap(n) for n in (50, 100, 200)]
        for before, after in zip(large, large[1:]):
            assert after <= max(before, floor)
        assert large[-1] < 1e-12

    def test_slope_matches_ode(self):
        mu = FAMILY["torus_2"]
        s = solve_f(mu, c=1.0, T=1.0, steps=200)
        ts = np.array([0.0, 0.4, 1.0])
        for t in ts:
            assert s.slope(t) == pytest.approx(1.0 * q_eval(mu, s.value(t))[1], abs=1e-12)
        expected = [1.0 * q_eval(mu, f)[1] for f in s.value(ts)]
        assert np.allclose(s.slope(ts), expected, rtol=0.0, atol=1e-12)

    def test_out_of_range_evaluation(self):
        s = solve_f(FAMILY["dirac"], c=1.0, T=1.0, steps=200)
        with pytest.raises(ParameterError):
            s.value(1.5)

    def test_rhs_is_slope_at_the_schedule_value(self):
        s = solve_f(FAMILY["torus_2"], c=1.5, T=1.0, steps=200)
        ts = np.array([0.0, 0.4, 1.0])
        assert s.rhs(s.value(0.4)) == s.slope(0.4)
        assert isinstance(s.rhs(s.value(0.4)), float)
        assert np.array_equal(s.rhs(s.value(ts)), s.slope(ts))


FIG1_SWEEP = [(FAMILY[name], c) for c in (0.5, 1.0, 2.0, 5.0) for name in ("dirac", "cycle_limit")]
FIG2_SWEEP = [(limit_measure("torus_limit", d=d), 1.0) for d in (1, 2, 4)] + [(FAMILY["dirac"], 1.0)]


class TestSolveFSweep:
    @pytest.mark.parametrize("pairs", [FIG1_SWEEP, FIG2_SWEEP], ids=["fig1", "fig2"])
    def test_equals_separate_solves(self, pairs):
        # The 1-node Dirac rows are padded to 64 nodes; zeros change no sum.
        for (mu, c), s in zip(pairs, solve_f_sweep(pairs, 1.0, 500)):
            alone = solve_f(mu, c, 1.0, 500)
            assert s.measure is mu and s.c == c
            assert np.array_equal(s.f_values, alone.f_values)
            assert np.array_equal(s.grid, alone.grid)
            limit_variance(mu, s, 1.0, 0.5)  # the schedule is built from mu

    def test_padded_wide_rows_stay_within_ulps(self):
        # Rows of 1, 10, 64 and 256 nodes: padding may regroup a row's dot.
        pairs = [
            (FAMILY["kesten_mckay_3"], 2.0),
            (FAMILY["cycle_limit"], 0.7),
            (FAMILY["empirical_cycle_10"], 3.0),
            (FAMILY["dirac"], 1.0),
        ]
        for (mu, c), s in zip(pairs, solve_f_sweep(pairs, 1.0, 300)):
            assert np.abs(s.f_values - solve_f(mu, c, 1.0, 300).f_values).max() <= 1e-15

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_c_anywhere_in_the_sweep(self, bad):
        with pytest.raises(ParameterError):
            solve_f_sweep([(FAMILY["cycle_limit"], 1.0), (FAMILY["dirac"], bad)], 1.0, 200)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ParameterError):
            solve_f_sweep([], 1.0, 200)


class TestCycleClosedForm:
    def test_zero(self):
        assert cycle_closed_form(1.0, 0.0) == 0.0
        assert cycle_closed_form(3.7, 0.0) == 0.0

    def test_phi_at_4(self):
        assert _phi(4.0) == pytest.approx(np.log(4.0) + 1.5, abs=1e-14)

    def test_matches_rk4(self):
        s = solve_f(FAMILY["cycle_limit"], c=1.0, T=1.0, steps=4000)
        for t in (0.25, 0.5, 1.0):
            assert abs(cycle_closed_form(1.0, t) - s.value(t)) < 1e-8

    def test_solves_ode_pointwise(self):
        # derivative of the closed form should equal c * Q'(f)
        c, t, h = 2.0, 0.6, 1e-6
        f = cycle_closed_form(c, t)
        deriv = (cycle_closed_form(c, t + h) - cycle_closed_form(c, t - h)) / (2 * h)
        assert deriv == pytest.approx(c * cycle_qprime_closed(f), rel=1e-6)

    def test_inverse_accuracy(self):
        for c in (0.5, 1.0, 5.0):
            for t in (0.1, 0.9, 2.0):
                x = cycle_closed_form(c, t)
                target = np.log(2.0) + 0.5 * (c * t - 1.0)
                assert abs(_phi(x) - target) <= 1e-12

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            cycle_closed_form(-1.0, 0.5)
        with pytest.raises(ParameterError):
            cycle_closed_form(1.0, -0.5)
