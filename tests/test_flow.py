import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from graphflock import flow
from graphflock.equilibrium import limit_value
from graphflock.errors import NumericError, ParameterError
from graphflock.flow import CHOP_TOL, _phi, cycle_closed_form, q_eval, solve_f
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
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ParameterError):
                solve_f(FAMILY["dirac"], c=bad, T=1.0)
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
        for bad in (1.5, 1.0 + 1e-10, -1e-10, np.nan, np.array([0.5, np.nan])):
            for evaluate in (s.value, s.slope):
                with pytest.raises(ParameterError):
                    evaluate(bad)
        assert s.value(1.0 + 1e-13) == s.value(1.0) and s.value(-1e-13) == 0.0

    def test_rhs_is_slope_at_the_schedule_value(self):
        s = solve_f(FAMILY["torus_2"], c=1.5, T=1.0, steps=200)
        ts = np.array([0.0, 0.4, 1.0])
        assert s.rhs(s.value(0.4)) == s.slope(0.4)
        assert isinstance(s.rhs(s.value(0.4)), float)
        assert np.array_equal(s.rhs(s.value(ts)), s.slope(ts))


def dop853_schedule(mu, c, ts):
    """f at the times ts by DOP853 on f' = c*Q'(f): a reference made apart from solve_f."""
    sol = solve_ivp(
        lambda t, y: c * q_eval(mu, float(y[0]))[1], (0.0, ts[-1]), [0.0], method="DOP853", rtol=1e-13, atol=1e-15, t_eval=ts
    )
    return sol.y[0]


class TestInverseSchedule:
    def test_exact_on_and_off_the_grid(self):
        mu = FAMILY["cycle_limit"]
        s = solve_f(mu, 100.0, 1.0, 2000)
        mid = s.grid[:-1] + 0.5 * (s.grid[1] - s.grid[0])
        for ts, f in ((s.grid, s.f_values), (mid, s.value(mid))):
            closed = np.array([cycle_closed_form(100.0, t) for t in ts])
            assert np.all(np.abs(f - closed) <= 1e-10 * np.maximum(1.0, closed))
        s = solve_f(mu, 5.0, 1.0, 2000)
        assert np.abs(s.value(mid) - dop853_schedule(mu, 5.0, mid)).max() <= 1e-12

    @pytest.mark.parametrize("c", [1e3, 1e4])
    @pytest.mark.parametrize("mu", [FAMILY["cycle_limit"], empirical_measure(cycle(1000))], ids=["cycle_limit", "cycle1000"])
    def test_limit_value_at_large_c(self, mu, c):
        f_T = dop853_schedule(mu, c, [1.0])[-1]
        reference = -0.5 * math.log(mu.integrate(lambda lam: -lam / (1.0 - lam * f_T)))
        assert abs(limit_value(solve_f(mu, c, 1.0), 1.0) - reference) <= 1e-10

    def test_solve_cost_does_not_depend_on_steps(self, monkeypatch):
        points, q_pair = [], flow._q_pair
        monkeypatch.setattr(flow, "_q_pair", lambda nodes, weights, x: points.append(np.size(x)) or q_pair(nodes, weights, x))
        counts = []
        for steps in (100, 20000):
            points.clear()
            solve_f(FAMILY["torus_2"], 5.0, 1.0, steps)
            counts.append(sum(points))
        assert counts[0] == counts[1] > 0

    def test_refuses_a_series_that_misses_the_bend(self):
        # At c*T = 1e10 G bends near u = 1e-5, short of every point of degree 16, where G looks
        # linear: a chop on those points alone keeps degree 1, 8.5e-8 off DOP853 at t = 0.001.
        mu, ts = FAMILY["kesten_mckay_3"], np.array([1e-3, 0.5, 1.0])
        s = solve_f(mu, 1e9, 1.0, 200)
        assert np.abs(s.value(ts) / dop853_schedule(mu, 1e9, ts) - 1.0).max() <= 1e-12
        with pytest.raises(NumericError):
            solve_f(mu, 1e10, 1.0, 200)

    @pytest.mark.parametrize("name", sorted(FAMILY))
    def test_health_numbers(self, name):
        s = solve_f(FAMILY[name], 5.0, 1.0, 200)
        assert 1 <= s.degree <= flow.MAX_DEGREE
        assert 0.0 <= s.chop_tail <= CHOP_TOL
        assert 0.0 <= s.newton_residual <= 1e-14
        with pytest.raises(AttributeError):
            s.degree = 0
        if name == "dirac":
            assert s.degree == 1  # G(u) = 2u

    def test_float_and_array_values_agree(self):
        s = solve_f(FAMILY["kesten_mckay_3"], 2.0, 1.0, 200)
        ts = np.array([0.0, 1e-4, 0.3, 0.0051, 0.5, 1.0 - 1e-12, 1.0])
        ts = np.concatenate([ts, np.nextafter(s.grid[1:-1], 0.0), np.nextafter(s.grid[1:-1], 1.0)])
        assert np.array_equal(s.value(s.grid), s.f_values)
        assert np.array_equal([s.value(float(t)) for t in ts], s.value(ts))

    def test_newton_stops_at_adjacent_floats(self):
        # At this time no float u has |Psi(u) - t| within Newton's tolerance:
        # the two floats around the root leave 2.33e-15 against 2.30e-15.
        s = solve_f(FAMILY["kesten_mckay_3"], 100.0, 1.0, 2000)
        t = 0.4025000000000001
        f = s.value(t)
        assert s.value(np.array([t]))[0] == f
        assert f == pytest.approx(s.value(0.4025), rel=1e-14)


class TestNumpyDct:
    def test_matches_scipy_bit_for_bit_at_every_degree(self):
        from scipy.fft import dct

        rng = np.random.default_rng(5)
        n = flow.MIN_DEGREE
        while n <= flow.MAX_DEGREE:
            h = rng.standard_normal(n + 1)
            assert np.array_equal(flow._dct1(h), dct(h, type=1)), n
            n *= 2


class TestGaussRule:
    @pytest.mark.parametrize("c", [1.0, 100.0, 1e4])
    def test_integrates_the_slope_to_the_end_value(self, c):
        # int_a^T f'(t) dt = f(T) - f(a), with f' = c Q'(f) bending near t = 0 at a large c.
        s = solve_f(FAMILY["cycle_limit"], c, 1.0, 400)
        start = np.array([0.0, 0.5, 0.999])
        f, w, pieces = s.curve_rule(s.value(start), 64)
        f_T = s.value(1.0)
        exact = f_T - s.value(start)  # within rounding of f_T
        sums = np.concatenate(([0.0], np.cumsum((w * s.rhs(f.ravel()).reshape(f.shape)).sum(axis=1))))[pieces]
        assert np.allclose(sums, exact, rtol=0.0, atol=1e-14 * f_T)

    def test_curve_rule_sums_to_every_time(self):
        # Dirac at -1, c T = 14: int_tau^T f dt = 3.5 (T^2 - tau^2), cut at u = 14^-1/2 2^j.
        s = solve_f(FAMILY["dirac"], 7.0, 2.0, 200)
        tau = np.array([2.0, 1.25, 0.3, 0.0])
        f, w, pieces = s.curve_rule(s.value(tau), 16)
        assert f.shape == w.shape == (5, 16) and pieces.tolist() == [0, 1, 3, 5]
        time, area = (np.concatenate(([0.0], np.cumsum(h.sum(axis=1))))[pieces] for h in (w, w * f))
        assert np.allclose(time, 2.0 - tau, rtol=1e-14, atol=0.0)
        assert np.allclose(area, 3.5 * (4.0 - tau**2), rtol=1e-13, atol=0.0)

    def test_curve_rule_has_no_piece_when_every_tau_is_t(self):
        s = solve_f(FAMILY["cycle_limit"], 1e4, 1.0, 200)
        f, w, pieces = s.curve_rule(s.value(np.array([1.0, 1.0])), 16)
        assert f.shape == w.shape == (0, 16) and pieces.tolist() == [0, 0]
        f, w, pieces = s.curve_rule(np.array([]), 16)  # no times at all
        assert f.shape == w.shape == (0, 16) and pieces.size == 0

    def test_curve_rule_needs_a_node(self):
        s = solve_f(FAMILY["dirac"], 1.0, 1.0, 200)
        for nodes in (0, -1):
            with pytest.raises(ParameterError):
                s.curve_rule(s.value(np.array([0.0])), nodes)


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

    def test_inverse_at_large_c(self):
        # Near x = 1.6e4, Phi's float spacing (3.6e-12) exceeds PHI_INVERSE_TOL,
        # so the root is met only to Phi's rounding.
        c = 1e5
        for t in np.linspace(0.0, 1.0, 201):
            x = cycle_closed_form(c, float(t))
            target = np.log(2.0) + 0.5 * (c * t - 1.0)
            assert abs(_phi(x) - target) <= 4 * np.spacing(max(1.0, target))

    def test_newton_failure_raises(self, monkeypatch):
        # The schedule's Newton serves the closed form too, with its step cap.
        monkeypatch.setattr(flow, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NumericError, match="did not converge in 1 steps"):
            cycle_closed_form(1.0, 0.5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            cycle_closed_form(-1.0, 0.5)
        for bad in (-0.5, np.nan, -np.inf, np.inf):
            with pytest.raises(ParameterError, match="finite t >= 0"):
                cycle_closed_form(1.0, bad)
        for c, t in ((1e300, 1e300), (1e308, 10.0)):
            with pytest.raises(NumericError, match=r"c\*T overflows"):
                cycle_closed_form(c, t)
