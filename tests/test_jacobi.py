import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from magflow import (
    AbstractProfile,
    ConformalTorus,
    ConjugatePointError,
    ConstantCurvature,
    CurvatureProfile,
    FourierSeries1D,
    FourierSeries2D,
    InsufficientDataError,
    IntegrationFailure,
    JacobiState,
    SamplingConfig,
    UnitTangent,
    classify,
    first_zero,
    green_slope,
    integrate_jacobi,
    integrate_riccati,
    solve_boundary,
)
from magflow import jacobi
from magflow.anosov import contraction_fit, growth_floor
from magflow.green import green_both
from families import hyperbolic_profile, oscillatory_profile, random_torus, rng_for

P_NEG = CurvatureProfile.constant(-1.0)
P_POS = CurvatureProfile.constant(1.0)
P_ZERO = CurvatureProfile.constant(0.0)


class TestIntegrate:
    def test_decaying_exponential(self):
        st = integrate_jacobi(P_NEG, JacobiState(1.0, -1.0), (0.0, 2.0)).at(2.0)
        assert st.value == pytest.approx(math.exp(-2), rel=1e-10)
        assert st.deriv == pytest.approx(-math.exp(-2), rel=1e-10)

    def test_sine(self):
        st = integrate_jacobi(P_POS, JacobiState(0.0, 1.0), (0.0, math.pi / 2)).at(math.pi / 2)
        assert st.value == pytest.approx(1.0, rel=1e-11)
        assert st.deriv == pytest.approx(0.0, abs=1e-11)

    def test_flat_constant_solution(self):
        tr = integrate_jacobi(P_ZERO, JacobiState(1.0, 0.0), (0.0, 7.0))
        ts = np.linspace(0, 7, 20)
        assert np.max(np.abs(tr.values(ts) - 1.0)) < 1e-12
        assert np.max(np.abs(tr.derivs(ts))) < 1e-12

    def test_linearity_is_exact(self):
        rng = rng_for("linear")
        p = oscillatory_profile(rng)
        base = integrate_jacobi(p, JacobiState(0.3, -0.8), (0.0, 10.0))
        scaled = integrate_jacobi(p, JacobiState(0.3 * 64.0, -0.8 * 64.0), (0.0, 10.0))
        ts = np.linspace(0, 10, 50)
        np.testing.assert_allclose(scaled.values(ts), 64.0 * base.values(ts),
                                   rtol=0, atol=1e-13 * 64)

    def test_zero_state_stays_zero(self):
        tr = integrate_jacobi(P_NEG, JacobiState(0.0, 0.0), (0.0, 5.0))
        assert tr.at(3.0) == JacobiState(0.0, 0.0)

    def test_query_outside_span_rejected(self):
        tr = integrate_jacobi(P_NEG, JacobiState(1.0, 0.0), (0.0, 2.0))
        with pytest.raises(ValueError):
            tr.at(3.0)
        # less than 1e-12 outside, a propagator read gives the span's end
        p = oscillatory_profile(rng_for("slack"))
        tr = integrate_jacobi(p, JacobiState(1.0, 0.0), (0.0, 2.0))
        assert tr.at(-1e-13) == tr.at(0.0) and tr.at(2.0 + 1e-13) == tr.at(2.0)

    def test_read_past_the_double_range_is_typed(self):
        # cosh overflows past t = 710; the periodic profile grows as fast
        periodic = CurvatureProfile.from_series(
            FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (P_NEG, periodic):
                tr = integrate_jacobi(p, JacobiState(1.0, 0.0), (0.0, 1000.0))
                with pytest.raises(InsufficientDataError,
                                   match="past the double range at t = 1000$"):
                    tr.at(1000.0)
            # the exact stable line decays where sinh overflows
            st = integrate_jacobi(P_NEG, JacobiState(1.0, -1.0), (0.0, 1000.0)).at(720.0)
            assert (st.value, st.deriv) == pytest.approx(
                (math.exp(-720.0), -math.exp(-720.0)), rel=1e-6)
            # an array read names its first time past the range, in the
            # direction of the span
            for end, first in ((1000.0, "800"), (-1000.0, "-800")):
                tr = integrate_jacobi(P_NEG, JacobiState(1.0, 0.0), (0.0, end))
                with pytest.raises(InsufficientDataError, match="at t = %s$" % first):
                    tr.states(np.linspace(0.0, end, 11))


class TestUnitSlope:
    # the unit-slope solution Z is the third component of the propagator
    def test_flat(self):
        assert jacobi.propagator(P_ZERO)(3.0)[2] == pytest.approx(3.0, rel=1e-12)

    def test_hyperbolic(self):
        assert jacobi.propagator(P_NEG)(1.0)[2] == pytest.approx(math.sinh(1), rel=1e-11)

    def test_conjugate_zero(self):
        assert jacobi.propagator(P_POS)(math.pi)[2] == pytest.approx(0.0, abs=1e-11)

    def test_first_zero_detection(self):
        assert first_zero(P_POS, 10.0) == pytest.approx(math.pi, abs=1e-9)
        assert first_zero(CurvatureProfile.constant(4.0), 10.0) == pytest.approx(
            math.pi / 2, abs=1e-9
        )
        assert first_zero(P_NEG, 50.0) is None
        # horizons shorter than half a scan step
        assert first_zero(P_NEG, 0.004) is None
        assert first_zero(P_POS, 3.2, step=10.0) == pytest.approx(math.pi, abs=1e-9)
        # the same on a callable profile, whose scan step is not capped
        pos = CurvatureProfile(evaluator=lambda t: 1.0 + 0.0 * np.asarray(t), k_bound=0.0)
        assert first_zero(pos, 0.004) is None
        assert first_zero(pos, 3.2, step=10.0) == pytest.approx(math.pi, abs=1e-9)
        # a zero less than half a step before the horizon
        assert first_zero(P_POS, 3.144) == pytest.approx(math.pi, abs=1e-9)
        with pytest.raises(ConjugatePointError):
            solve_boundary(P_POS, 3.144, cross_check=False)

    def test_first_zero_is_refined_relative_to_the_bracket(self):
        for k in (100.0**2 - 1.0, 5000.0**2):
            assert first_zero(CurvatureProfile.constant(k), 1.0) == pytest.approx(
                math.pi / math.sqrt(k), rel=1e-12, abs=0.0)


def _solution(p, bs):
    """The boundary solution bs on p: the Jacobi solution with value one and
    slope bs.slope0 at zero, read over [0, bs.r]."""
    return integrate_jacobi(p, JacobiState(1.0, bs.slope0), (0.0, bs.r))


class TestBoundarySolution:
    def test_flat_line(self):
        bs = solve_boundary(P_ZERO, 2.0, cross_check=True)
        sol = _solution(P_ZERO, bs)
        assert sol.at(1.0).value == pytest.approx(0.5, abs=1e-11)
        assert sol.at(0.0).value == pytest.approx(1.0, abs=1e-12)
        assert sol.at(2.0).value == pytest.approx(0.0, abs=1e-9)

    def test_hyperbolic_closed_form(self):
        bs = solve_boundary(P_NEG, 1.0, cross_check=True)
        assert _solution(P_NEG, bs).at(0.5).value == pytest.approx(
            math.sinh(0.5) / math.sinh(1.0), rel=1e-10
        )

    def test_boundary_conditions_met(self):
        rng = rng_for("bvp")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            r = 3.0 + 10.0 * rng.random()
            sol = _solution(p, solve_boundary(p, r, cross_check=True))
            assert abs(sol.at(0.0).value - 1.0) < 1e-9
            assert abs(sol.at(r).value) < 1e-9

    def test_negative_r_branch(self):
        bs = solve_boundary(P_NEG, -1.0, cross_check=True)
        assert bs.slope0 == pytest.approx(1.0 / math.tanh(1.0), rel=1e-10)
        sol = _solution(P_NEG, bs)
        assert sol.at(-1.0).value == pytest.approx(0.0, abs=1e-9)
        assert sol.at(-0.5).value == pytest.approx(
            math.sinh(0.5) / math.sinh(1.0), rel=1e-9
        )

    def test_conjugate_point_detected(self):
        with pytest.raises(ConjugatePointError):
            solve_boundary(P_POS, 4.0, cross_check=True)

    def test_cross_check_agrees(self):
        rng = rng_for("cross")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            assert solve_boundary(p, 10.0, cross_check=True).cross_residual < 1e-8

    def test_zero_r_rejected(self):
        with pytest.raises(ValueError):
            solve_boundary(P_NEG, 0.0, cross_check=True)


class TestWronskian:
    def test_conservation_bounded_solutions(self):
        rng = rng_for("wronskian")
        for _ in range(5):
            p = oscillatory_profile(rng)
            s1 = JacobiState(2 * rng.random() - 1, 2 * rng.random() - 1)
            s2 = JacobiState(2 * rng.random() - 1, 2 * rng.random() - 1)
            tr1 = integrate_jacobi(p, s1, (0.0, 50.0))
            tr2 = integrate_jacobi(p, s2, (0.0, 50.0))
            ts = np.linspace(0, 50, 1001)
            W = tr1.derivs(ts) * tr2.values(ts) - tr2.derivs(ts) * tr1.values(ts)
            assert np.max(np.abs(W - W[0])) < 1e-8

    def test_conservation_relative_for_growing_solutions(self):
        # exponentially growing pairs: conservation holds relative to the
        # size of the products entering the bracket (absolute drift is a
        # cancellation artifact at this magnitude)
        rng = rng_for("wronskian-growing")
        p = hyperbolic_profile(rng)
        tr1 = integrate_jacobi(p, JacobiState(1.0, 0.2), (0.0, 50.0))
        tr2 = integrate_jacobi(p, JacobiState(0.1, 1.0), (0.0, 50.0))
        ts = np.linspace(0, 50, 1001)
        W = tr1.derivs(ts) * tr2.values(ts) - tr2.derivs(ts) * tr1.values(ts)
        scale = np.abs(tr1.derivs(ts) * tr2.values(ts)) + np.abs(
            tr2.derivs(ts) * tr1.values(ts)
        )
        assert np.max(np.abs(W - W[0]) / scale) < 1e-10


class TestFlip:
    def test_even_profile_fixed(self):
        p = CurvatureProfile.from_series(FourierSeries1D(const=0.0, cos_coeffs={1: 1.0}))
        ts = np.linspace(-10, 10, 101)
        np.testing.assert_allclose(p.flipped().evaluator(ts), p.evaluator(ts),
                                   atol=1e-15)

    def test_sine_profile_reflects(self):
        p = CurvatureProfile.from_series(FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}))
        ts = np.linspace(-10, 10, 101)
        np.testing.assert_allclose(
            p.flipped().evaluator(ts), -1.0 - 0.3 * np.sin(ts), atol=1e-14
        )

    def test_double_flip_is_identity(self):
        rng = rng_for("flip")
        p = hyperbolic_profile(rng)
        ts = np.linspace(-20, 20, 201)
        np.testing.assert_allclose(
            p.flipped().flipped().evaluator(ts), p.evaluator(ts), atol=1e-14
        )


class TestSlopeIdentities:
    def test_slope_difference_equals_inverse_square_integral(self):
        # slope(r) - slope(s) = integral_s^r du / Z(u)^2 for s < r
        rng = rng_for("vprime")
        p = hyperbolic_profile(rng)
        s_val, r_val = 4.0, 9.0
        slope_s = solve_boundary(p, s_val, cross_check=False).slope0
        slope_r = solve_boundary(p, r_val, cross_check=False).slope0
        prop = jacobi.propagator(p)

        integral, _ = quad(
            lambda u: 1.0 / float(prop(u)[2]) ** 2,
            s_val, r_val, epsabs=1e-13, epsrel=1e-11,
        )
        assert slope_r - slope_s == pytest.approx(integral, rel=1e-9, abs=1e-10)
        assert slope_r > slope_s

    def test_negative_one_slope_is_an_upper_barrier(self):
        rng = rng_for("barrier")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            top = solve_boundary(p, -1.0, cross_check=False).slope0
            for r in (5.0, 10.0, 20.0):
                assert solve_boundary(p, r, cross_check=False).slope0 < top

    def test_growth_without_conjugate_points(self):
        # hyperbolic profiles: the unit-slope solution exceeds 100x its
        # initial derivative well before t = 50
        rng = rng_for("growth")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            assert abs(jacobi.propagator(p)(50.0)[2]) > 100.0


class TestPropagator:
    def test_one_launch_per_profile_in_classify(self, monkeypatch):
        launches = []
        real = jacobi._launch

        def counting(ev, y0, t_span):
            if len(y0) == 4 and t_span[0] == 0.0:  # fundamental matrix from zero
                launches.append(t_span)
            return real(ev, y0, t_span)

        monkeypatch.setattr(jacobi, "_launch", counting)
        # the constant model's propagator is read in closed form
        classify(ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=4 * math.pi))
        assert len(launches) == 0
        classify(AbstractProfile(
            kappa=FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}), k_bound=1.2
        ))
        assert len(launches) == 2

    def test_every_launch_grows_a_propagator(self, monkeypatch):
        # one Jacobi integration per profile: the contraction fit and the
        # witness read the propagators the scan and the schedules grew
        callers = []
        real = jacobi._launch

        def counting(ev, y0, t_span):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(ev, y0, t_span)

        monkeypatch.setattr(jacobi, "_launch", counting)
        sine = classify(AbstractProfile(
            kappa=FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}), k_bound=1.2))
        assert sine.orbits[0].contraction.success
        assert len(callers) == 2
        half_wave = classify(AbstractProfile(
            kappa=lambda t: -max(0.0, math.sin(t)) ** 2, k_bound=1.0))
        assert half_wave.orbits[0].contraction is not None
        flat = classify(AbstractProfile(kappa=lambda t: 0.0, k_bound=0.5))
        assert flat.orbits[0].witness_sup is not None
        assert set(callers) == {"_grow"}

    def test_first_read_at_time_zero(self):
        # a fresh propagator grows its first segment for a read at zero alone
        series = FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3})
        prop = jacobi.propagator(CurvatureProfile.from_series(series))
        assert np.array_equal(prop(0.0), [1.0, 0.0, 0.0, 1.0])
        st = integrate_jacobi(CurvatureProfile.from_series(series),
                              JacobiState(0.3, -0.8), (0.0, 5.0)).at(0.0)
        assert (st.value, st.deriv) == pytest.approx((0.3, -0.8), rel=1e-15)

    def test_readouts_do_not_depend_on_call_order(self):
        def slope_side(p):
            try:
                return green_slope(p, "+").plus
            except ConjugatePointError as exc:
                return ("conjugate", exc.conjugate_time)

        readouts = {
            "first_zero": lambda p: first_zero(p, 50.0),
            "green_slope": slope_side,
            "growth_floor": lambda p: growth_floor(p, 20.0),
        }
        rng = rng_for("propagator-order")
        for series in (hyperbolic_profile(rng).series, oscillatory_profile(rng).series):
            results = []
            for order in itertools.permutations(readouts):
                p = CurvatureProfile.from_series(series)
                results.append({name: readouts[name](p) for name in order})
            assert all(r == results[0] for r in results[1:])


def _direct(p, ts):
    """[A, A', Z, Z'] at ts from one direct launch from the identity."""
    return jacobi._launch(p.evaluator, [1.0, 0.0, 0.0, 1.0], (0.0, float(ts[-1]))).sol(ts)


class TestPeriodicPropagator:
    def test_route_follows_the_profile(self):
        series = FourierSeries1D(const=-1.0, omega=0.8, sin_coeffs={1: 0.3})
        assert jacobi.propagator(CurvatureProfile.from_series(series)).period \
            == pytest.approx(2 * math.pi / 0.8, rel=1e-15)
        # a constant is read in closed form, with no launch at any time
        const = jacobi.propagator(CurvatureProfile.constant(-1.0))
        assert const.period is None
        assert [const.nfev_to(t) for t in (0.0, 5.0, 1e6)] == [0, 0, 0]
        # an abstract profile keeps its series, and with it the exact
        # reflection and the periodic route
        prof = AbstractProfile(kappa=series, k_bound=1.2).profile(
            UnitTangent(), 1.0, 1e-10, False)[0]
        assert prof.series == series and prof.flipped().series == series.reflected()
        assert jacobi.propagator(prof.flipped()).period is not None
        callable_prof = AbstractProfile(kappa=series.__call__, k_bound=1.2).profile(
            UnitTangent(), 1.0, 1e-10, False)[0]
        assert jacobi.propagator(callable_prof).period is None

    @pytest.mark.parametrize("family", [oscillatory_profile, hyperbolic_profile])
    def test_matches_direct_launch(self, family):
        rng = rng_for("periodic-direct-" + family.__name__)
        ts = np.linspace(0.0, 60.0, 1201)
        for _ in range(4):
            p = family(rng)
            got, ref = jacobi.propagator(p)(ts), _direct(p, ts)
            scale = np.max(np.abs(ref), axis=0)
            assert np.max(np.abs(got - ref) / scale) < 1e-9

    def test_wronskian_is_one(self):
        rng = rng_for("periodic-wronskian")
        ts = np.linspace(0.0, 50.0, 2001)
        for _ in range(5):
            a, da, z, dz = jacobi.propagator(oscillatory_profile(rng))(ts)
            assert np.max(np.abs(a * dz - z * da - 1.0)) < 1e-9

    def test_constant_closed_forms(self):
        ts = np.linspace(0.0, 200.0, 4001)
        a, da, z, dz = jacobi.propagator(CurvatureProfile.constant(-1.0))(ts)
        for got, exact in ((a, np.cosh(ts)), (da, np.sinh(ts)),
                           (z, np.sinh(ts)), (dz, np.cosh(ts))):
            np.testing.assert_allclose(got, exact, rtol=1e-9, atol=1e-12)
        prop = jacobi.propagator(CurvatureProfile.constant(-1.0))
        for r in (50.0, 1e3, 1e6, 5.0 * 2**31):
            assert prop.slope(r) == pytest.approx(-1.0, abs=1e-13)
        ts = np.array([0.0, 2.5, 5.0, 7.5, 123.4, 1e6])
        a, da, z, dz = jacobi.propagator(P_ZERO)(ts)
        np.testing.assert_allclose(a, 1.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(da, 0.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(z, ts, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(dz, 1.0, rtol=0, atol=1e-13)

    def test_readouts_do_not_depend_on_request_order(self):
        rng = rng_for("periodic-order")
        ts = np.concatenate([np.linspace(0.0, 80.0, 333), [150.0, 300.0]])
        for series in (hyperbolic_profile(rng).series, oscillatory_profile(rng).series):
            one = jacobi.propagator(CurvatureProfile.from_series(series))
            first = one(ts)
            other = jacobi.propagator(CurvatureProfile.from_series(series))
            # the far end first, then every time singly from the back
            other(ts[-1])
            second = np.array([other(t) for t in ts[::-1]])[::-1].T
            assert np.array_equal(first, second)
            assert [one.slope(r) for r in (5.0, 40.0, 1e4)] \
                == [other.slope(r) for r in (1e4, 40.0, 5.0)][::-1]


CLOSED_FORM_KS = (4.0, 0.0, -1.0, -1e-300, -1e4)


def _chained(ev, ts):
    """[A, A', Z, Z'] at the increasing times ts >= 0 in stored scale, from
    launches from the identity at zero over segments of length 2, each
    started from the last end state divided by a power of two."""
    y, e = np.empty((4, ts.size)), np.zeros(ts.size, dtype=np.int64)
    t0, y0, exp = 0.0, np.array([1.0, 0.0, 0.0, 1.0]), 0
    while t0 < ts[-1]:
        t1 = min(t0 + 2.0, float(ts[-1]))
        run = jacobi._launch(ev, y0, (t0, t1))
        sel = (ts >= t0) & (ts <= t1)
        y[:, sel], e[sel] = run.sol(ts[sel]), exp
        f = math.frexp(float(np.max(np.abs(run.y[:, -1]))))[1]
        y0, exp, t0 = np.ldexp(run.y[:, -1], -f), exp + f, t1
    return y, e


class TestConstantClosedForm:
    @pytest.mark.parametrize("k", CLOSED_FORM_KS)
    def test_matches_direct_launch(self, k):
        # a launch drifts by about 1e-13 per unit of sqrt(-k) t, so K = -1e4
        # is compared on [0, 7.5], which crosses the switch at 700
        p = CurvatureProfile.constant(k)
        ts = np.linspace(0.0, 7.5 if k == -1e4 else 60.0, 1201)
        y, e = jacobi.propagator(p)._stored(ts)
        ref, ref_e = _chained(p.evaluator, ts)
        got = np.ldexp(y, e - ref_e)
        assert np.max(np.abs(got - ref) / np.max(np.abs(ref), axis=0)) < 1e-10
        # the Wronskian A Z' - Z A' = 1, on columns divided by a power of two
        f = np.frexp(np.max(np.abs(y), axis=0))[1]
        a, da, z, dz = np.ldexp(y, -f)
        w = a * dz - z * da
        assert np.all(np.abs(w - np.ldexp(1.0, -2 * (e + f)))
                      <= 4e-16 * (np.abs(a * dz) + np.abs(z * da)))

    @pytest.mark.parametrize("k", [-1.0, -1e4])
    def test_stored_scale_past_the_switch(self, k):
        lam = math.sqrt(-k)
        prop = jacobi.propagator(CurvatureProfile.constant(k))
        rs = np.array([50.0, 1e3, 1e6, 5.0 * 2**31])
        (a, da, z, dz), e = prop._stored(rs)
        assert np.all(np.isfinite([a, da, z, dz])) and np.all(z > 0.0)
        assert np.array_equal(a, dz)
        np.testing.assert_allclose(da / a, lam, rtol=1e-15)
        np.testing.assert_allclose(a / z, lam, rtol=1e-15)
        for r in rs:
            assert prop.slope(r) == pytest.approx(-lam, rel=1e-15)
            # the stable slope attracts every other one backward
            assert prop.pull_back(r, 0.0) == pytest.approx(-lam, rel=1e-15)
            j, dj = prop.carry(r, 0.0)
            assert dj[0] / j[0] == pytest.approx(lam, rel=1e-15)
        # no jump at the switch: the far read continues cosh and sinh
        ts = np.array([699.0, 700.0, 701.0]) / lam
        y, e = prop._stored(ts)
        step = np.ldexp(y[:, 1:], e[1:] - e[:-1]) / y[:, :-1]
        np.testing.assert_allclose(step, math.e, rtol=1e-12)

    def test_growth_floor_of_an_overflowing_solution(self):
        assert growth_floor(CurvatureProfile.constant(-1e4), 20.0) == 1.0

    @pytest.mark.parametrize("k", CLOSED_FORM_KS)
    def test_integrate_matches_launch(self, k, monkeypatch):
        unit = 1.0 / max(1.0, math.sqrt(abs(k)))
        p = CurvatureProfile.constant(k)
        cases = [(state, span)
                 for state in (JacobiState(0.3, -0.8), JacobiState(1.0, 0.5),
                               JacobiState(0.0, 1.0))
                 for span in ((unit, 6.0 * unit), (6.0 * unit, -2.0 * unit))]
        refs = []
        for state, span in cases:
            norm = math.hypot(state.value, state.deriv)
            run = jacobi._launch(p.evaluator,
                                 [state.value / norm, state.deriv / norm, 0.0, 0.0], span)
            refs.append(norm * run.sol(np.linspace(*span, 101))[:2])
        monkeypatch.setattr(jacobi, "_launch", None)  # the closed form launches nothing
        for (state, span), ref in zip(cases, refs):
            got = integrate_jacobi(p, state, span).states(np.linspace(*span, 101))
            assert np.max(np.abs(got - ref) / np.max(np.abs(ref), axis=0)) < 1e-10

    def test_stable_line_has_no_cancellation(self):
        p = CurvatureProfile.constant(-1e4)
        assert contraction_fit(p, green_both(p)).c == pytest.approx(100.0, rel=1e-12)


class TestSturmSkip:
    @staticmethod
    def _counted(monkeypatch):
        launches = []
        real = jacobi._launch

        def counting(ev, y0, t_span):
            launches.append(t_span)
            return real(ev, y0, t_span)

        monkeypatch.setattr(jacobi, "_launch", counting)
        return launches

    def test_ceilings(self):
        series = FourierSeries1D(const=-1.0, omega=0.7, cos_coeffs={1: 0.3, 2: 0.1},
                                 sin_coeffs={1: 0.4})
        p = CurvatureProfile.from_series(series)
        assert p.kappa_ceiling == pytest.approx(-1.0 + 0.5 + 0.1, rel=1e-15)
        for q in (p.shifted(1.3), p.flipped()):
            assert q.kappa_ceiling == pytest.approx(p.kappa_ceiling, rel=1e-15)
        ts = np.linspace(0.0, 2 * math.pi / 0.7, 10_001)
        assert np.max(p(ts)) <= p.kappa_ceiling
        assert CurvatureProfile.constant(0.25).kappa_ceiling == 0.25
        torus = random_torus(rng_for("ceiling")).profile(
            UnitTangent(0.1, 0.2, 0.5), 2.0, 1e-10, False)[0]
        assert torus.kappa_ceiling == math.inf

    def test_certified_profile_skips_the_scan(self, monkeypatch):
        launches = self._counted(monkeypatch)
        # K+ = -1 + 0.3 < 0: no zero at any horizon
        p = CurvatureProfile.from_series(FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}))
        assert first_zero(p, 50.0) is None
        # K+ = 0.02 and K+ * 20**2 = 8 < pi**2
        q = CurvatureProfile.from_series(FourierSeries1D(const=-0.5, cos_coeffs={1: 0.52}))
        assert first_zero(q, 20.0) is None
        assert launches == []

    def test_uncertified_profile_scans(self, monkeypatch):
        launches = self._counted(monkeypatch)
        # negative mean, but kappa ~ 1.3 around t = 0 gives a zero near 2.8
        p = CurvatureProfile.from_series(
            FourierSeries1D(const=-0.2, omega=0.2, cos_coeffs={1: 1.5}))
        t = first_zero(p, 50.0)
        assert launches and 2.0 < t < 3.5
        assert abs(_direct(p, np.array([t]))[2, 0]) < 1e-9
        # K+ = 0.2 > (pi / 50)**2, and the solution keeps its sign
        launches.clear()
        q = CurvatureProfile.from_series(FourierSeries1D(const=-1.0, cos_coeffs={1: 1.2}))
        assert first_zero(q, 50.0) is None
        assert launches

    def test_strong_field_scans_find_the_first_zero(self):
        # kappa = 2.5e7: zeros every pi / 5000 ~ 6.3e-4, finer than SCAN_STEP;
        # the step capped at half that spacing holds one zero per cell
        k = 5000.0**2 - 1.0
        p = CurvatureProfile.constant(k)
        assert first_zero(p, 50.0) == pytest.approx(math.pi / math.sqrt(k), rel=1e-12)
        # the Riccati pole of u(0) = 0 is the first zero of cos(sqrt(k) t)
        pole = integrate_riccati(p, 0.0, (0.0, 1.0)).blowup_time
        assert pole == pytest.approx(0.5 * math.pi / math.sqrt(k), rel=1e-12)


def _oracle(ev, y0, span):
    """scipy's DOP853 on J'' + ev(t) J = 0, one RHS call per stage."""
    def rhs(t, y):
        k = float(ev(t))
        return [w for j in range(0, len(y), 2) for w in (y[j + 1], -k * y[j])]

    return solve_ivp(rhs, span, y0, method="DOP853", rtol=1e-12, atol=1e-12,
                     dense_output=True)


def _launch_cases():
    """Fourier draws of both families and a torus spline profile, each with
    one pair alongside a zero pair and with the identity, forward and
    backward."""
    rng = rng_for("launch-oracle")
    profiles = [family(rng) for family in (hyperbolic_profile, oscillatory_profile)
                for _ in range(2)]
    profiles.append(random_torus(rng).profile(UnitTangent(0.1, 0.2, 0.5), 12.0,
                                              1e-10, False)[0])
    for p in profiles:
        for y0 in ([1.0, -0.4, 0.0, 0.0], [1.0, 0.0, 0.0, 1.0]):
            for span in ((1.0, 11.5), (11.0, 0.5)):
                yield p, y0, span


class TestLaunch:
    def test_matches_scipy_dop853(self):
        for p, y0, span in _launch_cases():
            run, ref = jacobi._launch(p.evaluator, y0, span), _oracle(p.evaluator, y0, span)
            # scipy evaluates the RHS 15 times per accepted step and 12 per
            # rejected one, the loop reads the curvature at 14 points per attempt
            assert abs(run.nfev - ref.nfev) <= 0.1 * ref.nfev
            if p.series is None:
                continue  # the spline profile: test_spline_profile_accuracy
            ts = np.linspace(*span, 997)
            want = ref.sol(ts)
            assert np.max(np.abs(run.sol(ts) - want) / np.maximum(1.0, np.abs(want))) < 1e-10

    def test_spline_profile_accuracy(self):
        # The third derivative of a spline jumps at every knot, so DOP853 at
        # 1e-12 rejects nearly half its attempts there, and a roundoff-level
        # difference from scipy's sums flips some accept decision: the step
        # sequences part, and the two runs differ by their own error. Both
        # are held to a reference that restarts at every knot, where the
        # curvature is one cubic.
        for p, y0, span in _launch_cases():
            if p.series is not None:
                continue
            knots = p.evaluator.x
            inner = knots[(knots > min(span)) & (knots < max(span))]
            ends = [span[0], *(inner if span[1] > span[0] else inner[::-1]), span[1]]
            states = [np.array(y0)]
            for t0, t1 in zip(ends[:-1], ends[1:]):
                states.append(_oracle(p.evaluator, states[-1], (t0, t1)).y[:, -1])
            want = np.array(states[::50]).T
            for run in (jacobi._launch(p.evaluator, y0, span),
                        _oracle(p.evaluator, y0, span)):
                got = run.sol(np.array(ends[::50]))
                assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-6

    def test_read_shapes_and_step_ends(self):
        for p, y0, span in _launch_cases():
            run = jacobi._launch(p.evaluator, y0, span)
            assert run.sol(span[1]).shape == (4,)
            assert run.sol(np.linspace(*span, 7)).shape == (4, 7)
            assert run.t[0] == span[0] and run.t[-1] == span[1]
            assert np.array_equal(run.y[:, 0], y0)
            assert np.array_equal(run.sol(run.t), run.y)
            assert np.array_equal(run.sol(run.t[-1]), run.y[:, -1])

    def test_nan_curvature_fails_in_the_first_attempt(self):
        calls = []

        def ev(t):
            calls.append(np.size(t))
            return np.full(np.shape(t), np.nan)

        for y0, span in (([1.0, 0.0, 0.0, 0.0], (0.0, 5.0)),
                         ([1.0, 0.0, 0.0, 1.0], (3.0, -2.0))):
            calls.clear()
            with pytest.raises(IntegrationFailure) as exc:
                jacobi._launch(ev, y0, span)
            assert exc.value.last_time == span[0]
            # the two first-step reads and one step attempt
            assert calls == [1, 1, len(jacobi._NODES)]


class TestWorkBudget:
    def test_launch_stops_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(jacobi, "JACOBI_NFEV_BUDGET", 300)
        # the series as a plain callable has no period, so the propagator
        # launches the doubling segments up to 50 rather than one period
        hyperbolic = CurvatureProfile(
            evaluator=FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}), k_bound=1.2)
        with pytest.raises(IntegrationFailure) as exc:
            integrate_jacobi(hyperbolic, JacobiState(1.0, 0.0), (0.0, 50.0)).at(50.0)
        assert "300 right-hand-side evaluations" in str(exc.value)
        assert 0.0 < exc.value.last_time < 50.0

    def test_overrun_is_recorded_on_the_orbit(self, monkeypatch):
        # b = 2000: kappa ~ 4e6 along the orbit, and the conjugate scan's
        # first launch alone would evaluate the curvature at 726,784 points
        monkeypatch.setattr(jacobi, "JACOBI_NFEV_BUDGET", 20_000)
        torus = ConformalTorus(phi=FourierSeries2D(), b=FourierSeries2D(const=2000.0))
        rep = classify(torus, SamplingConfig(ensemble_count=1, horizon=5.0))
        assert rep.verdict == "NotAnosov"  # chi = 0 decides the verdict
        assert rep.orbits[0].error.startswith(
            "IntegrationFailure: jacobi integration exceeded 20000 ")
