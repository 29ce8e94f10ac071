import itertools
import math
import sys
import warnings
from functools import partial, reduce
from operator import add, mul

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop853
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

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
    NumericalInconsistencyError,
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
from families import (hyperbolic_profile, negative_r_slope_limit, oscillatory_profile,
                      random_torus, rng_for)

P_NEG = CurvatureProfile.constant(-1.0)
P_POS = CurvatureProfile.constant(1.0)
P_ZERO = CurvatureProfile.constant(0.0)


class TestIntegrate:
    def test_decaying_exponential(self):
        value, deriv = integrate_jacobi(P_NEG, JacobiState(1.0, -1.0), (0.0, 2.0)).states(2.0)
        assert value == pytest.approx(math.exp(-2), rel=1e-10)
        assert deriv == pytest.approx(-math.exp(-2), rel=1e-10)

    def test_sine(self):
        value, deriv = integrate_jacobi(P_POS, JacobiState(0.0, 1.0),
                                        (0.0, math.pi / 2)).states(math.pi / 2)
        assert value == pytest.approx(1.0, rel=1e-11)
        assert deriv == pytest.approx(0.0, abs=1e-11)

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
        assert tr.states(3.0).tolist() == [0.0, 0.0]

    def test_query_outside_span_rejected(self):
        tr = integrate_jacobi(P_NEG, JacobiState(1.0, 0.0), (0.0, 2.0))
        with pytest.raises(ValueError):
            tr.states(3.0)
        # less than 1e-12 outside, a propagator read gives the span's end
        p = oscillatory_profile(rng_for("slack"))
        tr = integrate_jacobi(p, JacobiState(1.0, 0.0), (0.0, 2.0))
        assert np.array_equal(tr.states(-1e-13), tr.states(0.0))
        assert np.array_equal(tr.states(2.0 + 1e-13), tr.states(2.0))
        # the propagator itself starts at time zero
        with pytest.raises(ValueError, match="starts at time zero"):
            jacobi.propagator(p)(np.array([1.0, -1e-13]))

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
                    tr.states(1000.0)
            # the exact stable line decays where sinh overflows
            st = integrate_jacobi(P_NEG, JacobiState(1.0, -1.0), (0.0, 1000.0)).states(720.0)
            assert tuple(st) == pytest.approx(
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
        assert first_zero(P_NEG, 0.004) is None
        with pytest.raises(ValueError, match="horizon must be positive"):
            first_zero(P_POS, 0.0)
        # a zero on a knot: the second multiple of pi / 2 for K+ = 1
        assert jacobi._first_root(jacobi.propagator(P_POS), 0.0, 1.0,
                                  3.2) == pytest.approx(math.pi, abs=1e-9)
        # the same on a callable profile, scanned at its DOP853 step ends
        pos = CurvatureProfile(evaluator=lambda t: 1.0 + 0.0 * np.asarray(t), k_bound=0.0)
        assert first_zero(pos, 0.004) is None
        assert jacobi._first_root(jacobi.propagator(pos), 0.0, 1.0,
                                  3.2) == pytest.approx(math.pi, abs=1e-9)
        # a zero just before the horizon
        assert first_zero(P_POS, 3.144) == pytest.approx(math.pi, abs=1e-9)
        with pytest.raises(ConjugatePointError):
            solve_boundary(P_POS, 3.144, cross_check=False)

    def test_spline_conjugate_times_match_an_independent_reference(self):
        # scipy's CubicSpline through the same samples, scipy's DOP853 at
        # 1e-13 and the event root it places by brentq. A DOP853 run follows
        # a spline to about 1e-7 only (its third derivative jumps at every
        # knot), which bounds the agreement
        def crossing(t, y):
            return y[0]

        crossing.terminal, crossing.direction = True, -1
        torus = _bench_torus()
        for v0 in torus.ensemble(4, 0):
            p, tr = torus.profile(v0, 20.0)
            spline = CubicSpline(tr.t_samples, tr.kappa_samples)
            ref = solve_ivp(lambda t, y: [y[1], -float(spline(t)) * y[0]], (0.0, 20.0),
                            [0.0, 1.0], method="DOP853", rtol=1e-13, atol=1e-13,
                            events=crossing)
            assert ref.status == 1
            assert abs(first_zero(p, 20.0) - ref.t_events[0][0]) < 1e-6

    def test_first_zero_is_refined_relative_to_the_bracket(self):
        for k in (100.0**2 - 1.0, 5000.0**2):
            assert first_zero(CurvatureProfile.constant(k), 1.0) == pytest.approx(
                math.pi / math.sqrt(k), rel=1e-12, abs=0.0)


class TestKnotScan:
    """_first_root reads the solution at the propagator's knots alone: the
    accepted step ends of its launches, on a periodic profile the period's
    step ends shifted by T up to 2T and by whole periods in the window that
    Floquet predicts past it, and the horizon."""

    @staticmethod
    def _scanned(monkeypatch):
        batches = []
        knots = jacobi.Propagator._knots

        def counted(self, horizon):
            for ts in knots(self, horizon):
                batches.append(ts)
                yield ts

        monkeypatch.setattr(jacobi.Propagator, "_knots", counted)
        return batches

    def test_launched_segments_read_their_step_ends(self, monkeypatch):
        batches = self._scanned(monkeypatch)
        half_wave = lambda t: -max(0.0, math.sin(t)) ** 2  # noqa: E731
        prop = jacobi.propagator(_callable(half_wave, 1.0))
        assert jacobi._first_root(prop, 0.0, 1.0, 80.0) is None
        ends = np.concatenate([seg[0].t[1:] for seg in prop._segs[1:]])
        read = np.concatenate(batches)
        assert read[-1] == 80.0
        assert np.all(np.isin(read[:-1], ends))
        assert read.size <= ends.size + 1
        # a tenth of the 8000 times of a 0.01 grid
        assert read.size < 800

    def test_periods_past_2t_read_the_predicted_window(self, monkeypatch):
        # 1e-6 cos t keeps Z positive for 707,789 periods: the scan reads the
        # step ends of (0, 2T] twice (the scan, then q for the prediction) and
        # four whole periods, each at the period's step ends shifted by whole
        # periods, besides Brent's single reads
        p = CurvatureProfile.from_series(FourierSeries1D(const=0.0, cos_coeffs={1: 1e-6}))
        prop = jacobi.propagator(p)
        reads, depth, stored = [], [0], jacobi.Propagator._stored

        def counted(self, t):
            if depth[0] == 0:  # not a read of F(tau) inside a read past T
                reads.append(np.array(t))
            depth[0] += 1
            try:
                return stored(self, t)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(jacobi.Propagator, "_stored", counted)
        z = jacobi._first_root(prop, 0.0, 1.0, math.inf)
        assert 707789 * prop.period < z <= 707790 * prop.period
        ends = np.concatenate([seg[0].t[1:] for seg in prop._segs[1:-1]])
        read = np.concatenate([t for t in reads if t.size > 1])
        assert read.size == 8 * ends.size
        taus = read - np.floor(read / prop.period) * prop.period
        assert np.all(np.min(np.abs(taus[:, None] - np.r_[0.0, ends, prop.period]),
                             axis=1) < 1e-8 * np.maximum(read, 1.0))
        assert sum(t.size == 1 for t in reads) < 100

    def test_horizons_short_of_a_far_zero_read_none(self):
        # the zero of Z at t = 104.6888663, in period 16, lies just past the
        # horizon 104.688, between two knots of the predicted window: a
        # horizon short of it reads None, and a longer one the root that a
        # read of every period brackets
        series = FourierSeries1D(const=0.0009, cos_coeffs={1: 0.001})
        fresh = jacobi.propagator(CurvatureProfile.from_series(series))
        z = jacobi._first_root(fresh, 0.0, 1.0, 160.0)
        assert z == pytest.approx(104.68886630640438, rel=1e-12)
        assert z == _every_period_root(fresh, 0.0, 1.0, 160.0)
        prop = jacobi.propagator(CurvatureProfile.from_series(series))
        assert [prop.first_zero_of_z(r) for r in (50.0, 104.688)] == [None, None]
        assert prop.first_zero_of_z(160.0) == z


    def test_rescans_read_the_launched_segments_in_one_batch(self, monkeypatch):
        # the slope schedule of the half-wave asks first_zero at each doubled
        # r, and a scan that finds no zero is run again to the next horizon:
        # each rescan reads the segments launched already in one batch (35
        # batches and 47 reads of _stored when each segment was its own)
        batches = self._scanned(monkeypatch)
        reads, stored = [], jacobi.Propagator._stored

        def counted(self, t):
            reads.append(t)
            return stored(self, t)

        monkeypatch.setattr(jacobi.Propagator, "_stored", counted)
        half_wave = AbstractProfile(kappa=lambda t: -max(0.0, math.sin(t)) ** 2,
                                    k_bound=1.0)
        report = classify(half_wave, SamplingConfig(ensemble_count=1))
        assert report.verdict == "NumericallyAnosov"
        assert (len(batches), len(reads)) == (19, 31)


def _every_period_root(prop, v, d, horizon):
    """The first zero on (0, horizon] of J = v A + d Z of a periodic
    propagator, read at every knot n T + tau up to the horizon (tau a step
    end of the period) and refined by Brent's method as ``_first_root``
    refines it: the reference for the window that Floquet predicts."""
    prop.segment(math.inf)
    taus = np.concatenate([seg[0].t[1:] for seg in prop._segs[1:-1]])
    ts = (np.arange(math.ceil(horizon / prop.period))[:, None] * prop.period + taus).ravel()
    ts = np.append(ts[ts < horizon], horizon)
    (a, _da, z, _dz), e = prop._stored(ts)
    below = np.flatnonzero(v * a + d * z <= 0.0)
    if below.size == 0:
        return None
    i = below[0]
    lo, hi, scale = (ts[i - 1] if i else 0.0), ts[i], int(e[i])

    def g(t):
        (a, _da, z, _dz), e = prop._stored(np.array([t]))
        return math.ldexp(float(v * a[0] + d * z[0]), int(e[0]) - scale)

    return hi if g(hi) == 0.0 else jacobi._brent(g, float(lo), float(hi), 1e-12 * hi)


class TestFloquetZero:
    """Past 2T the zero scan reads the period that Floquet's closed form
    predicts from the monodromy's trace (``jacobi._predict``), decided only
    outside the margin JACOBI_TOL (|A(T)| + |Z'(T)|)."""

    @pytest.mark.parametrize("eps, bound", [
        (1e-3, 1e-5), (1e-4, 1e-5), (1e-5, 1e-5),
        # the trace's error amplified by 1 / (2 - tr M), about 2e-11 here
        (1e-6, 2e-3)])
    def test_small_cosine_is_mathieu_at_a_zero(self, eps, bound):
        # kappa = eps cos t is Mathieu's equation with a = 0, q = -2 eps: its
        # mean curvature is eps**2 / 2, so eps t* tends to sqrt(2) pi
        p = CurvatureProfile.from_series(FourierSeries1D(const=0.0, cos_coeffs={1: eps}))
        t = first_zero(p, math.inf)
        assert eps * t == pytest.approx(math.sqrt(2.0) * math.pi, rel=bound)

    def test_nearly_constant_profile(self):
        p = CurvatureProfile.from_series(FourierSeries1D(const=1e-12, cos_coeffs={1: 1e-20}))
        assert first_zero(p, math.inf) == pytest.approx(math.pi / 1e-6, rel=1e-9)

    def test_window_matches_a_read_of_every_period(self):
        # Z and the Riccati solutions J = A + u0 Z, on elliptic profiles with
        # a small mean and on hyperbolic ones, u0 down to 1e-9 below the
        # stable slope included: the same root, bit for bit
        rng = rng_for("floquet-window")
        cases = []
        for _ in range(12):
            c0 = 10.0 ** rng.uniform(-3.5, -2.0)
            series = FourierSeries1D(const=c0, omega=rng.uniform(0.5, 2.0),
                                     cos_coeffs={1: c0 * rng.uniform(-1.0, 1.0)},
                                     sin_coeffs={2: c0 * rng.uniform(-0.5, 0.5)})
            p = CurvatureProfile.from_series(series)
            cases += [(p, 0.0, 1.0)] + [(p, 1.0, u0) for u0 in rng.uniform(-0.02, 0.5, 3)]
        for _ in range(12):
            p = hyperbolic_profile(rng)
            stable = jacobi.floquet(p, math.inf).stable
            cases += [(p, 1.0, stable - du * max(1.0, abs(stable)))
                      for du in (1e-9, 10.0 ** rng.uniform(-8.0, 0.0))]
        found = 0
        for p, v, d in cases:
            prop = jacobi.propagator(p)
            for horizon in prop.period * rng.uniform(2.0, 50.0, 2):
                z = jacobi._first_root(prop, v, d, horizon)
                assert z == _every_period_root(prop, v, d, horizon)
                found += z is not None and z > 2.0 * prop.period
        assert found > 60

    def test_mathieu_just_past_a0(self):
        # q = 0.1, a = a0(q) + da: tr M = 2 - O(da), so the first conjugate
        # time scales as 1 / sqrt(da); at da = 1e-10 it lies 1e5 periods out
        q = 0.1
        scaled = []
        for da in (1e-4, 1e-6, 1e-8, 1e-10):
            rep = _mathieu_classify(_mathieu_a0(q) + da, q)
            assert rep.verdict == "NotAnosov"
            scaled.append(rep.orbits[0].conjugate_time * math.sqrt(da))
        assert max(scaled) - min(scaled) < 1e-3 * min(scaled)

    def test_margin_keeps_a_noisy_trace_undecided(self, monkeypatch):
        # tr M - 2 reads -1.34e-13 where it is +3.9e-15 (hyperbolic, |c| T**2):
        # inside the margin the scan raises the typed error, which names the
        # trace; with no margin it reports a conjugate point that is not there
        series = FourierSeries1D(const=-1e-16, cos_coeffs={1: 1e-12}, sin_coeffs={2: 5e-13})
        rep = _series_classify(series)
        assert rep.verdict == "Inconclusive"
        assert rep.orbits[0].error.startswith(
            "NumericalInconsistencyError: the monodromy (tr M = 1.99999999999")
        predict = jacobi._predict

        def no_margin(prop, j):
            with monkeypatch.context() as m:
                m.setattr(jacobi, "JACOBI_TOL", 0.0)
                return predict(prop, j)

        monkeypatch.setattr(jacobi, "_predict", no_margin)
        assert _series_classify(series).verdict == "NotAnosov"

    def test_nonpositive_ceiling_has_no_conjugate_point(self):
        # K+ <= 0 excludes a zero at every horizon, the infinite one included
        # (K+ * inf**2 is NaN at K+ = 0); -1e-20 + 1e-21 cos t reads tr M = 2
        # exactly, so the monodromy decides neither slopes nor a zero
        series = FourierSeries1D(const=-1e-20, cos_coeffs={1: 1e-21})
        p = CurvatureProfile.from_series(series)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert first_zero(p, math.inf) is None
            assert first_zero(P_ZERO, math.inf) is None
        assert jacobi.floquet(p, math.inf) is None
        rep = _series_classify(series)
        assert rep.verdict == "Inconclusive" and rep.orbits[0].conjugate_time is None
        assert rep.orbits[0].error.startswith("NumericalInconsistencyError")

    @pytest.mark.parametrize("shift", [-3, 3])
    def test_a_shifted_prediction_is_caught(self, monkeypatch, shift):
        # a window three periods early shows no sign change, and one three
        # periods late reads J <= 0 in its first period: the orbit records
        # the typed error and no other zero
        predict = jacobi._predict

        def shifted(prop, j):
            n, taus, trace = predict(prop, j)
            return n + shift, taus, trace

        monkeypatch.setattr(jacobi, "_predict", shifted)
        rep = _series_classify(FourierSeries1D(const=0.0, cos_coeffs={1: 1e-3}))
        assert rep.verdict == "Inconclusive"
        assert rep.orbits[0].conjugate_time is None
        assert rep.orbits[0].error.startswith(
            "NumericalInconsistencyError: the reads of periods %d to %d do not confirm"
            % (705 + shift, 708 + shift))


def _solution(p, bs):
    """The boundary solution bs on p: the Jacobi solution with value one and
    slope bs.slope0 at zero, read over [0, bs.r]."""
    return integrate_jacobi(p, JacobiState(1.0, bs.slope0), (0.0, bs.r))


class TestBoundarySolution:
    def test_flat_line(self):
        bs = solve_boundary(P_ZERO, 2.0, cross_check=True)
        sol = _solution(P_ZERO, bs)
        assert sol.values(1.0) == pytest.approx(0.5, abs=1e-11)
        assert sol.values(0.0) == pytest.approx(1.0, abs=1e-12)
        assert sol.values(2.0) == pytest.approx(0.0, abs=1e-9)

    def test_hyperbolic_closed_form(self):
        bs = solve_boundary(P_NEG, 1.0, cross_check=True)
        assert _solution(P_NEG, bs).values(0.5) == pytest.approx(
            math.sinh(0.5) / math.sinh(1.0), rel=1e-10
        )

    def test_boundary_conditions_met(self):
        rng = rng_for("bvp")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            r = 3.0 + 10.0 * rng.random()
            sol = _solution(p, solve_boundary(p, r, cross_check=True))
            assert abs(sol.values(0.0) - 1.0) < 1e-9
            assert abs(sol.values(r)) < 1e-9

    def test_negative_r_branch(self):
        bs = solve_boundary(P_NEG, -1.0, cross_check=True)
        assert bs.slope0 == pytest.approx(1.0 / math.tanh(1.0), rel=1e-10)
        sol = _solution(P_NEG, bs)
        assert sol.values(-1.0) == pytest.approx(0.0, abs=1e-9)
        assert sol.values(-0.5) == pytest.approx(
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

    @pytest.mark.parametrize("cross_check", [False, True])
    @pytest.mark.parametrize("r", [800.0, 2000.0])
    def test_slope_where_the_solution_overflows(self, r, cross_check):
        # A(r) and Z(r) are past the double range; their ratio is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_boundary(P_NEG, r, cross_check=cross_check).slope0 == -1.0

    def test_periodic_slope_where_the_solution_overflows(self):
        p = CurvatureProfile.from_series(FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope = solve_boundary(p, 2000.0, cross_check=False).slope0
        assert math.isfinite(slope)
        assert slope == jacobi.propagator(p).slope(2000.0)

    def test_cross_check_where_every_candidate_probe_is_large(self):
        # |Z| passes 1e5 near t = 12, below the first candidate probe 0.05 r =
        # 100, where A + s Z cancels catastrophically: the probes sit below it
        p = CurvatureProfile.from_series(FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}))
        sol = solve_boundary(p, 2000.0, cross_check=True)
        assert sol.cross_residual < 1e-10
        assert sol.slope0 == jacobi.propagator(p).slope(2000.0)

    def test_nan_disagreement_fails_the_cross_check(self, monkeypatch):
        # solve_boundary imports quad from scipy.integrate where it runs
        import scipy.integrate

        monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kwargs: (math.nan, 0.0))
        with pytest.raises(NumericalInconsistencyError, match="disagree by nan"):
            solve_boundary(P_NEG, 1.0, cross_check=True)

    def test_zero_at_r_is_a_conjugate_point(self, monkeypatch):
        stored = jacobi.Propagator._stored

        def zero_z(self, t):
            y, e = stored(self, t)
            y = y.copy()
            y[2] = 0.0
            return y, e

        monkeypatch.setattr(jacobi.Propagator, "_stored", zero_z)
        with pytest.raises(ConjugatePointError, match="vanishes at r") as exc:
            solve_boundary(P_NEG, 3.0, cross_check=False)
        assert exc.value.conjugate_time == 3.0

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
        # the period's launch answers for the reflected profile too
        classify(AbstractProfile(
            kappa=FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}), k_bound=1.2
        ))
        assert len(launches) == 1

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
        assert len(callers) == 1
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
                              JacobiState(0.3, -0.8), (0.0, 5.0)).states(0.0)
        assert tuple(st) == pytest.approx((0.3, -0.8), rel=1e-15)

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


def _compose(p, q):
    """The scalar product of two fundamental matrices, each ([A, A', Z, Z']
    mantissa, binary exponent), with the mantissa renormalised."""
    (a1, da1, z1, dz1), e1 = p
    (a2, da2, z2, dz2), e2 = q
    y = (a1 * a2 + z1 * da2, da1 * a2 + dz1 * da2,
         a1 * z2 + z1 * dz2, da1 * z2 + dz1 * dz2)
    f = math.frexp(max(abs(v) for v in y))[1]
    return tuple(math.ldexp(v, -f) for v in y), e1 + e2 + f


class _ScalarPowers:
    """M**k as (mantissa, exponent) by the scalar recursion, kept per k: the
    squares M**(2**j) of the set bits of k multiplied in increasing j, as
    M**(k - 2**j) times M**(2**j) for the top bit j of k."""

    def __init__(self, m):
        self.squares, self.powers = [m], {0: ((1.0, 0.0, 0.0, 1.0), 0)}

    def __call__(self, k):
        if k not in self.powers:
            j = k.bit_length() - 1
            while j >= len(self.squares):
                self.squares.append(_compose(self.squares[-1], self.squares[-1]))
            self.powers[k] = _compose(self(k - (1 << j)), self.squares[j])
        return self.powers[k]


def _normalised(y, e):
    """Each entry of the stored values y (shape (4, n)) with the exponents e
    as its frexp mantissa and its total binary exponent, zero for a zero."""
    m, f = np.frexp(np.asarray(y, dtype=float))
    return m, np.where(m != 0.0, f + np.asarray(e, dtype=np.int64), 0)


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
            UnitTangent(), 1.0)[0]
        assert prof.series == series and prof.flipped().series == series.reflected()
        assert jacobi.propagator(prof.flipped()).period is not None
        callable_prof = AbstractProfile(kappa=series.__call__, k_bound=1.2).profile(
            UnitTangent(), 1.0)[0]
        assert jacobi.propagator(callable_prof).period is None

    def test_harmonic_free_series_is_the_constant(self):
        # a constant is a Fourier series without harmonics, or with
        # omega = 0 (const + sum_j a_j), wherever it comes from: its
        # propagator is the closed form, with no launch
        series = FourierSeries1D(const=-0.7)
        zero_freq = FourierSeries1D(const=-1.0, omega=0.0, cos_coeffs={1: 0.3},
                                    sin_coeffs={2: 0.5})
        const = jacobi.propagator(CurvatureProfile.constant(-0.7))
        ts = np.linspace(0.0, 2000.0, 4001)
        for p in (CurvatureProfile.from_series(series),
                  AbstractProfile(kappa=series, k_bound=1.0).profile(
                      UnitTangent(), 1.0)[0],
                  CurvatureProfile.from_series(zero_freq)):
            assert p.const_value == -0.7
            prop = jacobi.propagator(p)
            assert prop.nfev_to(10.0) == 0
            for got, want in zip(prop._stored(ts), const._stored(ts)):
                assert np.array_equal(got, want)
            assert prop(ts[:400]).tobytes() == const(ts[:400]).tobytes()

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

    def test_reads_past_the_period_match_the_scalar_powers(self):
        # F(tau) M**n past T, from the powers of the scalar recursion and the
        # product written out per entry: the same bits once normalised
        rng = rng_for("periodic-powers")
        for series in (FourierSeries1D(const=-50.0, omega=0.7, sin_coeffs={1: 3.0}),
                       FourierSeries1D(const=0.0, cos_coeffs={1: 1e-6}),
                       FourierSeries1D(const=1.0, cos_coeffs={2: -1.0}),
                       FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}),
                       FourierSeries1D(const=-0.6, omega=2.5, cos_coeffs={1: 0.8})):
            prop = jacobi.propagator(CurvatureProfile.from_series(series))
            prop.segment(math.inf)
            power, period = _ScalarPowers(prop._squares[0]), prop.period
            ts = np.sort(np.exp(rng.uniform(math.log(period), math.log(1e6), 300)))
            want = []
            for t in ts:
                n = math.floor(t / period)
                tau = min(max(t - n * period, 0.0), period)
                (a, da, z, dz), e = prop._stored(np.array([tau]))
                (pa, pda, pz, pdz), pe = power(n)
                want.append(_normalised([a * pa + z * pda, da * pa + dz * pda,
                                         a * pz + z * pdz, da * pz + dz * pdz], e + pe))
            m, f = _normalised(*prop._stored(ts))
            assert m.tobytes() == np.concatenate([w[0] for w in want], axis=1).tobytes()
            assert np.array_equal(f, np.concatenate([w[1] for w in want], axis=1))
            assert ts[-1] > 5e5

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


def _log_growth(m):
    """log of the larger eigenvalue of the 2x2 matrix [[A, Z], [A', Z']]."""
    a, da, z, dz = m
    return math.log(max(abs(np.linalg.eigvals([[a, z], [da, dz]]))))


class TestMonodromyReadout:
    """A periodic profile reads its slopes, gap and contraction rate from the
    monodromy M = F(T) when tr M > 2 and the unit-slope solution Z has no
    zero on (0, 2T] (``jacobi.floquet``, by Sturm separation)."""

    # Hill-zone profiles (kappa > 0 somewhere) with tr M > 2 whose stable
    # eigen-solution has zeros: (series, tr M, first conjugate time)
    HILL_ZONE = [
        (FourierSeries1D(const=1.0, cos_coeffs={2: -1.0}), 4.8247, 2.514064745431625),
        (FourierSeries1D(const=4.1, cos_coeffs={2: -2.0}), 2.1364, 1.5450481030160248),
    ]

    @pytest.mark.parametrize("series, trace, conjugate", HILL_ZONE)
    def test_zero_free_check_is_what_keeps_the_verdict(self, monkeypatch, series,
                                                       trace, conjugate):
        p = CurvatureProfile.from_series(series)
        m = _direct(p, np.array([2 * math.pi]))[:, 0]
        assert m[0] + m[3] == pytest.approx(trace, abs=1e-4)
        assert jacobi.floquet(p, math.inf) is None
        model = AbstractProfile(kappa=series, k_bound=2.0)
        rep = classify(model)
        assert rep.verdict == "NotAnosov"
        assert rep.orbits[0].conjugate_time == pytest.approx(conjugate, rel=1e-9)
        # the gate must be shown to fail: with the readout's scan of Z skipped
        # (as where the ceiling is <= 0), it certifies a profile with
        # conjugate points
        init = jacobi.Propagator.__init__

        def no_ceiling(self, profile):
            init(self, profile)
            self.ceiling = 0.0

        monkeypatch.setattr(jacobi.Propagator, "__init__", no_ceiling)
        assert classify(model).verdict == "NumericallyAnosov"

    def test_cancelling_stable_solution_is_decided(self):
        # tr M ~ 5.4e4: J_s = A + u_s Z cancels to ~1e-9 of its terms within
        # the period, but Z, read as a component, shows no zero. The rate is
        # the exact exponent log lambda_u / T; an independent scipy DOP853
        # run at rtol 1e-13 gives 0.8665084912374, a polyfit on [1, 10] 1.2575
        series = FourierSeries1D(const=-1.0, omega=0.5, cos_coeffs={1: 1.2})
        p = CurvatureProfile.from_series(series)
        period = 4 * math.pi
        m = _direct(p, np.array([period]))[:, 0]
        assert m[0] + m[3] == pytest.approx(5.3577e4, rel=1e-4)
        assert jacobi.floquet(p, math.inf) is not None
        rep = classify(AbstractProfile(kappa=series, k_bound=p.k_bound))
        assert rep.verdict == "NumericallyAnosov"
        c = rep.orbits[0].contraction.c
        assert c == pytest.approx(_log_growth(m) / period, rel=1e-9)
        assert c == pytest.approx(0.8665084912374, rel=1e-9)

    def test_classify_forms_the_readout_once(self, monkeypatch):
        # first_zero, both slope sides (the minus one through the mirror)
        # and the contraction fit share one readout and one scan of Z
        calls = {"_readout": 0, "_first_root": 0}
        for name in calls:
            def counted(*args, _f=getattr(jacobi, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(jacobi, name, counted)
        series = FourierSeries1D(const=-0.6, cos_coeffs={1: 0.8})
        rep = classify(AbstractProfile(kappa=series, k_bound=math.sqrt(1.4 + 1e-9)))
        assert rep.verdict == "NumericallyAnosov"
        assert calls == {"_readout": 1, "_first_root": 1}

    def test_a_conjugate_point_is_scanned_once(self, monkeypatch):
        # the readout's scan of (0, 2T] finds the zero of 1 - cos 2t, and
        # the conjugate scan of (0, 50] reads it from the propagator
        found = []

        def counted(*args, _f=jacobi._first_root):
            found.append(_f(*args))
            return found[-1]

        monkeypatch.setattr(jacobi, "_first_root", counted)
        series, _trace, conjugate = self.HILL_ZONE[0]
        rep = classify(AbstractProfile(kappa=series, k_bound=2.0))
        assert rep.verdict == "NotAnosov"
        assert found == [rep.orbits[0].conjugate_time]
        assert found[0] == pytest.approx(conjugate, rel=1e-12)

    def test_matches_independent_routes(self):
        rng = rng_for("monodromy-readout")
        for _ in range(20):
            p = hyperbolic_profile(rng)
            hill = jacobi.floquet(p, math.inf)
            assert hill is not None
            est = green_both(p)
            assert (est.plus.r_schedule, est.minus.r_schedule) == ([hill.period],) * 2
            assert est.u_minus0 == pytest.approx(negative_r_slope_limit(p), abs=1e-10)
            assert est.u_plus0 == pytest.approx(
                solve_boundary(p, 640.0, cross_check=False).slope0, abs=1e-10)
            fit = contraction_fit(p, est)
            want = _log_growth(_direct(p, np.array([hill.period]))[:, 0]) / hill.period
            assert fit.c == pytest.approx(want, rel=1e-9)

    def test_reflection_reads_the_mirror(self, monkeypatch):
        # the flipped profile's readout equals that of a separate launch on
        # the reflected series, and launches nothing of its own
        rng = rng_for("monodromy-mirror")
        for _ in range(10):
            p = hyperbolic_profile(rng)
            alone = jacobi.floquet(CurvatureProfile.from_series(p.series.reflected()), math.inf)
            jacobi.floquet(p, math.inf)
            with monkeypatch.context() as m:
                m.setattr(jacobi, "_launch", None)
                mirrored = jacobi.floquet(p.flipped(), math.inf)
            assert mirrored.stable == pytest.approx(alone.stable, abs=1e-12)
            assert mirrored.unstable == pytest.approx(alone.unstable, abs=1e-12)
            assert mirrored.log_growth == pytest.approx(alone.log_growth, rel=1e-12)

    def test_no_read_forces_the_period(self, monkeypatch):
        # T = 2 pi 1e5: floquet at horizon 5 launches nothing (the breakpoint
        # holding 5 is not T), the mirror's neither, and the conjugate scan
        # to 5 launches [0, 5] alone, where the Sturm bracket
        # [pi / sqrt(1.5), pi / sqrt(0.5)] holds the zero
        launched = []

        def recorded(ev, y0, t_span, _f=jacobi._launch):
            launched.append(tuple(t_span))
            return _f(ev, y0, t_span)

        monkeypatch.setattr(jacobi, "_launch", recorded)
        p = CurvatureProfile.from_series(
            FourierSeries1D(const=1.0, omega=1e-5, cos_coeffs={1: 0.5}))
        assert jacobi.floquet(p, 5.0) is None
        assert jacobi.floquet(p.flipped(), 5.0) is None
        assert launched == []
        t = first_zero(p, 5.0)
        assert math.pi / math.sqrt(1.5) <= t <= math.pi / math.sqrt(0.5)
        assert launched == [(0.0, 5.0)]
        assert first_zero(CurvatureProfile.from_series(p.series), 5.0) == t
        assert launched == [(0.0, 5.0)] * 2

    def test_late_hyperbolic_profile_reads_the_exact_exponent(self):
        # kappa(0) = -0.1, kappa(pi) = -2.3: the fit window [W / 10, W] sees
        # a profile that turns more hyperbolic after t = 0
        series = FourierSeries1D(const=-1.2, cos_coeffs={1: 1.1})
        rep = classify(AbstractProfile(kappa=series, k_bound=math.sqrt(2.3 + 1e-9)))
        assert rep.verdict == "NumericallyAnosov"
        period = 2 * math.pi
        m = _direct(CurvatureProfile.from_series(series), np.array([period]))[:, 0]
        assert rep.orbits[0].contraction.c == pytest.approx(_log_growth(m) / period,
                                                           rel=1e-9)

    def test_strong_field(self):
        # the exponent comes from M in stored scale, where A ~ exp(200 pi)
        series = FourierSeries1D(const=-1e4, sin_coeffs={1: 0.3})
        p = CurvatureProfile.from_series(series)
        rep = classify(AbstractProfile(kappa=series, k_bound=p.k_bound))
        assert rep.verdict == "NumericallyAnosov"
        prop = jacobi.propagator(p)
        prop.segment(math.inf)
        mantissa, e = prop._squares[0]
        want = (_log_growth(mantissa) + e * math.log(2.0)) / (2 * math.pi)
        assert rep.orbits[0].contraction.c == pytest.approx(want, rel=1e-9)
        # past the double range inside one launch segment: a typed failure
        series = FourierSeries1D(const=-1.5e4, sin_coeffs={1: 0.3})
        rep = classify(AbstractProfile(
            kappa=series, k_bound=CurvatureProfile.from_series(series).k_bound))
        assert rep.verdict == "Inconclusive"
        assert rep.orbits[0].error.startswith("IntegrationFailure: ")


def _mathieu(a: float, q: float) -> FourierSeries1D:
    """Mathieu's kappa(t) = a - 2 q cos 2t, of period T = pi."""
    return FourierSeries1D(const=a, omega=2.0, cos_coeffs={1: -2.0 * q})


def _mathieu_trace(a: float, q: float) -> float:
    """tr M of Mathieu's equation, M read from the propagator."""
    prop = jacobi.propagator(CurvatureProfile.from_series(_mathieu(a, q)))
    prop.segment(math.inf)
    (m_a, _da, _z, m_dz), e = prop._squares[0]
    return math.ldexp(m_a + m_dz, e)


def _mathieu_a0(q: float) -> float:
    """The first stability boundary a0(q) (Abramowitz and Stegun 20.2.25)."""
    return -q**2 / 2 + 7 * q**4 / 128 - 29 * q**6 / 2304 + 68687 * q**8 / 18874368


def _series_classify(series: FourierSeries1D):
    return classify(AbstractProfile(kappa=series,
                                    k_bound=CurvatureProfile.from_series(series).k_bound))


def _mathieu_classify(a: float, q: float):
    return _series_classify(_mathieu(a, q))


class TestMathieu:
    """Mathieu's equation J'' + (a - 2q cos 2t) J = 0 against its published
    stability boundaries (Abramowitz and Stegun 20.2.25; DLMF 28.6). Below
    a0(q), tr M > 2 and the eigen-solutions have no zero; in tongue 1
    (b1 < a < a1), tr M < -2; in tongue 2 (b2 < a < a2), tr M > 2 but the
    stable solution has zeros, so only the Sturm gate of the readout
    refutes it."""

    @staticmethod
    def _boundary(q, sign, lo, hi):
        # Brent on tr M - sign * 2, where the series' bracket changes sign
        return jacobi._brent(lambda a: _mathieu_trace(a, q) - 2.0 * sign, lo, hi, 1e-15)

    @pytest.mark.parametrize("q, bound", [
        # q = 0.05 and 0.1: the readout's own accuracy, past the next term
        # (1.2e-16 and 1.2e-13); q = 0.2: the next term, 123707 q**10/104857600
        (0.05, 6e-14), (0.1, 6e-14), (0.2, 1.21e-10)])
    def test_a0_series(self, q, bound):
        a0 = _mathieu_a0(q)
        assert abs(self._boundary(q, 1, a0 - 1e-3, a0 + 1e-3) - a0) < bound

    def test_tongue_boundaries(self):
        # at q = 0.1: b1 and a1 within their next term 11 q**5/36864 = 3.0e-9
        # (with the q**6 term, 8e-11, on top); a2 within its next term
        # 1002401 q**6/79626240 = 1.26e-8; b2, whose next term is 3.6e-12,
        # within the readout's accuracy on its shallow crossing (tr M moves
        # by 3e-3 per unit of a there)
        q = 0.1
        b1 = 1 - q - q**2 / 8 + q**3 / 64 - q**4 / 1536
        a1 = 1 + q - q**2 / 8 - q**3 / 64 - q**4 / 1536
        b2 = 4 - q**2 / 12 + 5 * q**4 / 13824
        a2 = 4 + 5 * q**2 / 12 - 763 * q**4 / 13824
        mid1, mid2 = (b1 + a1) / 2, (b2 + a2) / 2
        assert abs(self._boundary(q, -1, b1 - 0.05, mid1) - b1) < 3.1e-9
        assert abs(self._boundary(q, -1, mid1, a1 + 0.05) - a1) < 3.1e-9
        assert abs(self._boundary(q, 1, b2 - 2e-3, mid2) - b2) < 1e-10
        assert abs(self._boundary(q, 1, mid2, a2 + 2e-3) - a2) < 1.3e-8

    @pytest.mark.parametrize("q, a0", [
        (1.0, -0.45513860), (5.0, -5.80004602), (10.0, -13.93697996)])
    def test_verdict_flips_at_a0(self, q, a0):
        # table values of a0(q), to 8 decimals
        assert _mathieu_classify(a0 - 1e-4, q).verdict == "NumericallyAnosov"
        assert _mathieu_classify(a0 + 1e-4, q).verdict == "NotAnosov"

    def test_tongue_two_is_refuted_by_the_sturm_gate(self, monkeypatch):
        # the middle of tongue 2 at q = 0.1: tr M - 2 = 3.9e-6, and the
        # stable solution vanishes near pi / 2
        q = 0.1
        a = ((4 - q**2 / 12 + 5 * q**4 / 13824) + (4 + 5 * q**2 / 12 - 763 * q**4 / 13824)) / 2
        assert _mathieu_trace(a, q) - 2.0 == pytest.approx(3.9e-6, rel=0.02)
        rep = _mathieu_classify(a, q)
        assert rep.verdict == "NotAnosov"
        assert rep.orbits[0].conjugate_time == pytest.approx(1.5703221916, abs=1e-9)
        # the gate must be shown to fail: a zero scan that finds no zero
        # leaves the readout to decide the tongue, and the verdict moves
        monkeypatch.setattr(jacobi.Propagator, "first_zero_of_z", lambda self, horizon: None)
        assert _mathieu_classify(a, q).verdict != "NotAnosov"


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
            UnitTangent(0.1, 0.2, 0.5), 2.0)[0]
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

    def test_long_period_scans_its_first_segment_first(self, monkeypatch):
        # 1e4 (1 + 0.5 cos 0.1 t): the period 20 pi spans the segments [0, 5],
        # [5, 10], [10, 20] and [20, 20 pi], and the scan to 50 would force
        # all of them; the zero, in Sturm's bracket [pi / sqrt(1.5e4),
        # pi / sqrt(1e4)], lies in the first, which alone is launched
        launches = self._counted(monkeypatch)
        p = CurvatureProfile.from_series(
            FourierSeries1D(const=1e4, omega=0.1, cos_coeffs={1: 5e3}))
        t = first_zero(p, 50.0)
        assert launches == [(0.0, 5.0)]
        assert math.pi / math.sqrt(1.5e4) <= t <= math.pi / math.sqrt(1e4)
        assert t == pytest.approx(0.02565100057895667, rel=1e-12)
        assert abs(_direct(p, np.array([t]))[2, 0]) < 1e-9

    def test_strong_long_period_reads_its_conjugate_point(self):
        # 1e6 (1 + 0.5 cos 0.1 t): launched over its whole period first, the
        # profile spent the Jacobi budget (1e6 curvature points) before any
        # zero was read, and the verdict was Inconclusive; the first segment
        # holds the zero, in Sturm's bracket
        series = FourierSeries1D(const=1e6, omega=0.1, cos_coeffs={1: 5e5})
        rep = classify(AbstractProfile(kappa=series, k_bound=0.0))
        assert rep.verdict == "NotAnosov"
        assert rep.orbits[0].error is None
        t = rep.orbits[0].conjugate_time
        assert math.pi / math.sqrt(1.5e6) <= t <= math.pi / math.sqrt(1e6)

    def test_strong_field_scans_find_the_first_zero(self):
        # kappa = 2.5e7: zeros every pi / 5000 ~ 6.3e-4; the knots, at half
        # that spacing, hold one zero per cell
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
    profiles.append(random_torus(rng).profile(UnitTangent(0.1, 0.2, 0.5), 12.0)[0])
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


# The step attempt in its list form, the one jacobi._pair writes out:
# every stage sum, the update and the error terms a dot product over a full
# row of scipy's DOP853 tableau, zero weights included. The package summed
# with sum(map(mul, w, c)), which adds left to right from 0 up to Python
# 3.11 (3.12 compensates); dot does so on every version.
_ROWS = [row[:s] for s, row in enumerate(_dop853.A.tolist())]
_B, _E3, _E5 = _dop853.B.tolist(), _dop853.E3.tolist(), _dop853.E5.tolist()


def dot(w, c):
    return reduce(add, map(mul, w, c), 0.0)


def list_form_attempt(ev, t, y, f, h):
    tol = jacobi.JACOBI_TOL
    a, da, z, dz = y
    kv = np.asarray(ev(t + h * jacobi._NODES), dtype=float).tolist()
    # the stage derivatives of each component, stage by stage
    ks = ka, kda, kz, kdz = [f[0]], [f[1]], [f[2]], [f[3]]
    for row, k in zip(_ROWS[1:12], kv):
        stage_a = a + dot(row, ka) * h
        stage_z = z + dot(row, kz) * h
        ka.append(da + dot(row, kda) * h)
        kda.append(-k * stage_a)
        kz.append(dz + dot(row, kdz) * h)
        kdz.append(-k * stage_z)
    y_new = [v + h * dot(_B, c) for v, c in zip(y, ks)]
    f_new = jacobi._rate(kv[10], y_new)
    e5 = e3 = 0.0
    for v, w, c, r in zip(y, y_new, ks, f_new):
        c.append(r)
        sc = tol + max(abs(v), abs(w)) * tol
        p, q = dot(_E5, c) / sc, dot(_E3, c) / sc
        e5, e3 = e5 + p * p, e3 + q * q
    err = (0.0 if e5 == 0 and e3 == 0
           else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 4))
    return y_new, f_new, err, (ks, kv[11:])


def _bench_torus():
    # the benchmark's torus (demo 05)
    return ConformalTorus(phi=FourierSeries2D(cos_coeffs={(1, 0): 0.05}),
                          b=FourierSeries2D(const=0.6, sin_coeffs={(0, 1): 0.2}))


def _bench_spline():
    # the curvature along an orbit of the benchmark's torus
    return _bench_torus().profile(UnitTangent(0.3, 0.7, 1.1), 20.0)[0]


def _callable(kappa, k_bound):
    return AbstractProfile(kappa=kappa, k_bound=k_bound).curvature()


class TestUnrolledLaunch:
    """jacobi._pair writes out the stage sums of list_form_attempt with its
    zero weights skipped, and callable profiles are read without
    np.vectorize; both read bitwise what the list forms read."""

    @staticmethod
    def _launches(monkeypatch, read, attempt):
        runs = []
        launch = jacobi._launch

        def recording(*args):
            runs.append(launch(*args))
            return runs[-1]

        with monkeypatch.context() as mp:
            mp.setattr(jacobi, "_launch", recording)
            mp.setattr(jacobi, "_attempt", attempt)
            read()
        return runs

    def _assert_bitwise(self, monkeypatch, read):
        got = self._launches(monkeypatch, read, jacobi._attempt)
        want = self._launches(monkeypatch, read, list_form_attempt)
        assert len(got) == len(want) > 0
        for run, ref in zip(got, want):
            for name in ("t", "y", "F"):
                assert getattr(run, name).tobytes() == getattr(ref, name).tobytes()
            assert run.nfev == ref.nfev
        return got

    @pytest.mark.parametrize("span", [(0.0, 12.0), (11.0, -0.5)],
                             ids=["forward", "backward"])
    def test_fourier_launches(self, monkeypatch, span):
        rng = rng_for("unrolled")
        profiles = [family(rng) for family in (hyperbolic_profile, oscillatory_profile)]

        def read():
            for p in profiles:
                for y0 in ([1.0, 0.0, 0.0, 1.0], [0.3, -1.2, 0.7, 0.4]):
                    jacobi._launch(p.evaluator, y0, span)

        self._assert_bitwise(monkeypatch, read)

    def test_bench_torus_spline(self, monkeypatch):
        p = _bench_spline()
        self._assert_bitwise(monkeypatch, lambda: (
            jacobi._launch(p.evaluator, [1.0, 0.0, 0.0, 1.0], (0.0, 20.0)),
            jacobi._launch(p.evaluator, [1.0, 0.0, 0.0, 1.0], (20.0, 3.0))))

    def test_half_wave_propagator(self, monkeypatch):
        # fresh profiles, since each caches its propagator
        runs = self._assert_bitwise(monkeypatch, lambda: jacobi.propagator(
            _callable(lambda t: -max(0.0, math.sin(t)) ** 2, 1.0))(40.0))
        assert len(runs) == 4  # the segments ending at 5, 10, 20 and 40

    def test_segment_started_past_the_rescale_threshold(self, monkeypatch):
        # lam = 20: the state passes 1e100 by t = 20, so the segment [20, 40]
        # starts from the rescaled end state of [10, 20]
        runs = self._assert_bitwise(monkeypatch, lambda: jacobi.propagator(
            _callable(lambda t: -400.0 + 0.3 * math.sin(t), 21.0))(35.0))
        assert np.max(np.abs(runs[-2].y[:, -1])) > jacobi.RESCALE_THRESHOLD
        assert np.max(np.abs(runs[-1].y[:, 0])) < 1.0

    @pytest.mark.parametrize("t", [
        0.7, np.float64(-2.5), np.array(1.5), np.linspace(-1.0, 4.0, 7),
        np.linspace(0.0, 6.0, 12).reshape(3, 4), np.empty(0), np.empty((2, 0)),
    ], ids=["float", "float64", "0-d", "1-d", "2-d", "empty", "empty-2-d"])
    def test_callable_read_matches_vectorize(self, t):
        for kappa in (lambda s: -max(0.0, math.sin(s)) ** 2,
                      lambda s: int(3.0 * s) - 4):  # int values
            got = _callable(kappa, 5.0)(t)
            want = np.vectorize(kappa, otypes=[float])(t)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestWorkBudget:
    def test_launch_stops_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(jacobi, "JACOBI_NFEV_BUDGET", 300)
        # the series as a plain callable has no period, so the propagator
        # launches the doubling segments up to 50 rather than one period
        hyperbolic = CurvatureProfile(
            evaluator=FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}), k_bound=1.2)
        with pytest.raises(IntegrationFailure) as exc:
            integrate_jacobi(hyperbolic, JacobiState(1.0, 0.0), (0.0, 50.0)).states(50.0)
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


def _counted(f):
    """f with a count of its evaluations in ``calls[0]``."""
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)
    return g, calls


_PORT = jacobi._brent


def _scipy_and_port(f, lo, hi, xtol):
    """(outcome, evaluations) of scipy's brentq and of jacobi._brent on one
    bracket at the iteration cap ``jacobi.BRENT_MAXITER``, the outcome being
    the root or "failed": scipy's ValueError or RuntimeError, the port's
    NumericalInconsistencyError."""
    out = []
    scipy_brentq = partial(brentq, xtol=xtol, maxiter=jacobi.BRENT_MAXITER)
    for solve, errors in ((lambda g: scipy_brentq(g, lo, hi), (ValueError, RuntimeError)),
                          (lambda g: _PORT(g, lo, hi, xtol), NumericalInconsistencyError)):
        g, calls = _counted(f)
        try:
            got = solve(g)
        except errors:
            got = "failed"
        out.append((got, calls[0]))
    return out


class TestBrent:
    """jacobi._brent is a port of scipy's brentq.c and jacobi._dop853 a copy
    of scipy's DOP853 tableau; both must return scipy's bits."""

    def test_vendored_tableau_is_scipys(self):
        from magflow import _dop853 as vendored

        for name in ("C", "A", "B", "E3", "E5", "D"):
            want = getattr(_dop853, name)
            got = getattr(vendored, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_matches_brentq_on_random_brackets(self):
        rng = rng_for("brent-random")
        shapes = [
            lambda r, c: lambda x: math.tan(c * (x - r)) / (1.0 + x * x),
            lambda r, c: lambda x: c * (x - r) ** 3,
            lambda r, c: lambda x: math.exp(c * (x - r)) - 1.0,
            lambda r, c: lambda x: math.sin(c * x) + 0.3,  # may not change sign
            lambda r, c: lambda x: (x - r) ** 9 - 1e-30,
            lambda r, c: lambda x: math.copysign(abs(x - r) ** 0.1, x - r),
            lambda r, c: lambda x: math.cos(c * x) * math.exp(-x),
            # the extrapolation's denominator underflows to zero
            lambda r, c: lambda x: 1e-160 * (math.exp(c * (x - r)) - 1.0),
        ]
        failed = 0
        for i in range(800):
            lo = rng.uniform(-5.0, 5.0)
            hi = lo + 10.0 ** rng.uniform(-6.0, 1.0)
            f = shapes[i % len(shapes)](rng.uniform(lo, hi), rng.uniform(0.1, 5.0))
            xtol = 10.0 ** rng.uniform(-15.0, -3.0)
            scipy_out, port_out = _scipy_and_port(f, lo, hi, xtol)
            assert port_out == scipy_out, (i, lo, hi, xtol)
            failed += scipy_out[0] == "failed"
        assert 50 < failed < 350  # both branches are exercised

    def test_matches_brentq_without_convergence(self, monkeypatch):
        rng = rng_for("brent-maxiter")
        failed = 0
        for maxiter in (1, 2, 3, 5):
            monkeypatch.setattr(jacobi, "BRENT_MAXITER", maxiter)
            for _ in range(40):
                lo = rng.uniform(-1.0, 0.5)
                hi = lo + rng.uniform(0.5, 3.0)
                r = rng.uniform(lo, hi)
                f = lambda x, r=r: math.sinh(x - r) + 0.1 * (x - r) ** 3
                xtol = 10.0 ** rng.uniform(-15.0, -8.0)
                scipy_out, port_out = _scipy_and_port(f, lo, hi, xtol)
                assert port_out == scipy_out, (maxiter, lo, hi, xtol)
                failed += scipy_out[0] == "failed"
        assert 40 < failed < 160

    def test_matches_brentq_on_every_program_bracket(self, monkeypatch):
        # every bracket _first_root bisects in a bench-torus classify, the
        # constant models past b = 1 (K + b^2 > 0, conjugate points) and
        # the two Hill-zone profiles
        brackets = []

        def record(f, lo, hi, xtol):
            brackets.append(_scipy_and_port(f, lo, hi, xtol))
            return _PORT(f, lo, hi, xtol)

        monkeypatch.setattr(jacobi, "_brent", record)
        torus = ConformalTorus(phi=FourierSeries2D(cos_coeffs={(1, 0): 0.05}),
                               b=FourierSeries2D(const=0.6, sin_coeffs={(0, 1): 0.2}))
        classify(torus, SamplingConfig(ensemble_count=16))
        for b in (1.05, 1.1, 1.2, 1.3, 1.4):
            classify(ConstantCurvature(K=-1.0, b=b, chi=-2, area=4 * math.pi),
                     SamplingConfig(ensemble_count=4, horizon=60.0))
        for series, _trace, _conjugate in TestMonodromyReadout.HILL_ZONE:
            classify(AbstractProfile(kappa=series, k_bound=2.0))
        assert len(brackets) >= 16 + 5 + 2
        for scipy_out, port_out in brackets:
            assert scipy_out[0] != "failed"
            assert port_out == scipy_out

    def test_failures_name_the_bracket(self):
        with pytest.raises(NumericalInconsistencyError,
                           match=r"root bracket \[1.0, 2.0\]: the function has one sign"):
            jacobi._brent(lambda x: x * x, 1.0, 2.0, 1e-12)
        with pytest.raises(NumericalInconsistencyError,
                           match=r"root bracket \[-1.0, 2.0\]: the function is NaN at 2.0"):
            jacobi._brent(lambda x: x if x < 2.0 else math.nan, -1.0, 2.0, 1e-12)
        with pytest.raises(NumericalInconsistencyError,
                           match=r"root bracket \[-1e\+300, 1e\+300\]: no convergence in 100 "):
            # a jump at 0.5 in a bracket 2e300 wide: each iteration at most
            # halves it, and 100 halvings leave it near 1e270
            jacobi._brent(lambda x: 1.0 if x > 0.5 else -1.0, -1e300, 1e300, 1e-12)

    def test_failure_is_recorded_on_the_orbit(self, monkeypatch):
        monkeypatch.setattr(jacobi, "BRENT_MAXITER", 1)
        rep = classify(AbstractProfile(kappa=FourierSeries1D(const=1.0), k_bound=0.0),
                       SamplingConfig(ensemble_count=1))
        assert rep.verdict == "Inconclusive"
        assert rep.orbits[0].error.startswith(
            "NumericalInconsistencyError: root bracket [")
        assert "no convergence in 1 iterations" in rep.orbits[0].error
