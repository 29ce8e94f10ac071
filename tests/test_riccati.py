import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from magflow import (
    CurvatureProfile,
    FourierSeries1D,
    InsufficientDataError,
    JacobiState,
    UnitTangent,
    comparison_envelope,
    green_slope,
    integrate_jacobi,
    integrate_riccati,
)
from magflow import jacobi, riccati
from magflow.green import green_both
from families import hyperbolic_profile, oscillatory_profile, random_torus, rng_for

P_NEG = CurvatureProfile.constant(-1.0)
P_POS = CurvatureProfile.constant(1.0)
P_ZERO = CurvatureProfile.constant(0.0)


def riccati_residual(profile, trace):
    """Max defect |u' + u^2 + kappa| at interior collocation points,
    with u' taken from a spline through the samples."""
    ts, us = trace.t_samples, trace.u_samples
    if ts[0] > ts[-1]:
        ts, us = ts[::-1], us[::-1]
    spline = CubicSpline(ts, us)
    interior = ts[2:-2]
    du = spline(interior, 1)
    kap = np.asarray(profile.evaluator(interior), dtype=float)
    return float(np.max(np.abs(du + spline(interior) ** 2 + kap)))


class TestClosedForms:
    def test_tanh(self):
        tr = integrate_riccati(P_NEG, 0.0, (0.0, 1.0))
        assert tr.u_samples[-1] == pytest.approx(math.tanh(1.0), rel=1e-11)
        assert tr.blowup_time is None

    def test_tan_blowup(self):
        tr = integrate_riccati(P_POS, 0.0, (0.0, 5.0))
        assert tr.blowup_time == pytest.approx(math.pi / 2, abs=1e-8)

    def test_flat_rational(self):
        tr = integrate_riccati(P_ZERO, 1.0, (0.0, 1.0))
        assert tr.u_samples[-1] == pytest.approx(0.5, rel=1e-11)

    def test_blowup_downward(self):
        # u' = -u^2 from a negative start: pole at t = 1/|u0|
        tr = integrate_riccati(P_ZERO, -2.0, (0.0, 5.0))
        assert tr.blowup_time == pytest.approx(0.5, abs=1e-8)


class TestEnvelope:
    def test_values(self):
        assert comparison_envelope(1.0, 1.0)["upper"] == pytest.approx(
            1.0 / math.tanh(1.0), rel=1e-14
        )
        assert comparison_envelope(2.0, 0.5)["upper"] == pytest.approx(
            2.0 / math.tanh(1.0), rel=1e-14
        )
        assert comparison_envelope(1.0, 1.0)["lower"] == -1.0

    def test_asymptote(self):
        assert comparison_envelope(1.0, 40.0)["upper"] == pytest.approx(1.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            comparison_envelope(1.0, 0.0)
        with pytest.raises(ValueError):
            comparison_envelope(1.0, -1.0)
        with pytest.raises(ValueError):
            comparison_envelope(0.0, 1.0)

    def test_containment_for_random_profiles(self):
        # survivors of the forward flow respect the pinching band; the
        # lower bound is only checked away from the window edge, since a
        # dip below -k forces blow-up within ~log(2k/eps)/(2k) time units
        rng = rng_for("envelope")
        T = 50.0
        for _ in range(8):
            p = hyperbolic_profile(rng)
            k = p.k_bound
            guard = (math.log(2 * k / 1e-6) + 2.0) / (2 * k)
            for u0 in (-3 * k, -0.9 * k, 0.0, 0.5 * k, 2 * k, 10.0):
                tr = integrate_riccati(p, u0, (0.0, T))
                ts, us = tr.t_samples, tr.u_samples
                inside = ts > 1e-3
                upper = k / np.tanh(k * ts[inside])
                if tr.blowup_time is None:
                    assert np.all(us[inside] <= upper + 1e-6)
                    low = inside & (ts <= T - guard)
                    assert np.all(us[low] >= -k - 1e-6)
                else:
                    pre = inside & (ts < tr.blowup_time - 1e-3)
                    assert np.all(us[pre] <= k / np.tanh(k * ts[pre]) + 1e-6)


class TestGreenLaunchedBand:
    def test_constant(self):
        # stable slope of the constant profile is a fixed point
        est = green_slope(P_NEG, "+")
        tr_b = integrate_riccati(P_NEG, est.u_plus0, (0.0, -50.0))
        assert tr_b.blowup_time is None
        assert np.max(np.abs(tr_b.u_samples)) <= 1.0 + 1e-6
        # forward propagation leaves the repelling slope through its own
        # roundoff; a one-sided nudge keeps it inside the invariant band
        tr_f = integrate_riccati(P_NEG, est.u_plus0 + 1e-9, (0.0, 50.0))
        assert tr_f.blowup_time is None
        assert np.max(np.abs(tr_f.u_samples)) <= 1.0 + 1e-6

    def test_random_profiles(self):
        rng = rng_for("band")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            k = p.k_bound
            est = green_slope(p, "+")
            assert est.plus.converged
            for u0, span in ((est.u_plus0, (0.0, -50.0)),
                             (est.u_plus0 + 1e-9, (0.0, 50.0))):
                tr = integrate_riccati(p, u0, span)
                assert tr.blowup_time is None
                assert np.max(np.abs(tr.u_samples)) <= k + 1e-6


class TestLogDerivativeLink:
    def test_residual_of_sampled_solution(self):
        rng = rng_for("resid")
        p = hyperbolic_profile(rng)
        tr = integrate_riccati(p, 0.3, (0.0, 20.0))
        assert riccati_residual(p, tr) < 1e-6

    def test_log_derivative_of_stable_solution_solves_riccati(self):
        p = CurvatureProfile.constant(-2.25)
        est = green_slope(p, "+")
        jt = integrate_jacobi(p, JacobiState(1.0, est.u_plus0), (0.0, 8.0))
        ts = np.linspace(0.0, 8.0, 801)
        u = jt.derivs(ts) / jt.values(ts)
        du = CubicSpline(ts, u)(ts[5:-5], 1)
        resid = du + u[5:-5] ** 2 + np.asarray(p.evaluator(ts[5:-5]))
        assert np.max(np.abs(resid)) < 1e-6



def launch(profile, u0, span):
    """A direct Jacobi launch from (1, u0) at span[0] over span, alongside a
    zero pair: independent of the propagator the readout goes through."""
    return jacobi._launch(profile.evaluator, [1.0, u0, 0.0, 0.0], span)


def launch_error(profile, tr, u0, span):
    """Largest deviation of the samples from J'/J of a direct Jacobi launch
    from (1, u0), relative to max(1, |u|), where |u| < 1e3."""
    j, dj = launch(profile, u0, span).sol(tr.t_samples)[:2]
    ref = dj / j
    keep = np.abs(ref) < 1e3
    dev = np.abs(tr.u_samples[keep] - ref[keep])
    return float(np.max(dev / np.maximum(1.0, np.abs(ref[keep]))))


def launch_zero(profile, u0, span):
    """First zero of a direct Jacobi launch from (1, u0) over span."""
    run = launch(profile, u0, span)
    ts = np.linspace(span[0], span[1], 20001)
    i = int(np.nonzero(run.sol(ts)[0] <= 0.0)[0][0])
    return brentq(lambda t: float(run.sol(t)[0]), ts[i - 1], ts[i], xtol=1e-13)


def knot_reference(profile, knots, u0, span):
    """The Jacobi solution from (1, u0) at span[0] over span, launched afresh
    at every knot inside the span, where a spline profile is one cubic
    between knots, by scipy's DOP853 at rtol = atol = 1e-13, up to the
    first knot cell where J reaches zero. Returns the cells as (start, end,
    dense output of (J, J'))."""
    t0, t1 = span
    inner = knots[(knots > min(span)) & (knots < max(span))]
    ends = [t0, *(inner if t1 > t0 else inner[::-1]), t1]

    def rate(t, y):
        return [y[1], -float(profile.evaluator(t)) * y[0]]

    y, cells = [1.0, u0], []
    for a, b in zip(ends[:-1], ends[1:]):
        sol = solve_ivp(rate, (a, b), y, method="DOP853", rtol=1e-13, atol=1e-13,
                        dense_output=True)
        cells.append((a, b, sol.sol))
        y = sol.y[:, -1]
        if y[0] <= 0.0:
            break
    return cells


def knot_error(tr, cells):
    """Largest deviation of the samples from J'/J of ``knot_reference``,
    relative to max(1, |u|), where |u| < 1e3."""
    sign = 1.0 if cells[0][1] > cells[0][0] else -1.0
    ends = sign * np.array([b for _a, b, _sol in cells])
    idx = np.searchsorted(ends, sign * tr.t_samples, "left")
    ref = np.empty(tr.t_samples.size)
    for k in np.unique(idx):
        sel = idx == k
        j, dj = cells[k][2](tr.t_samples[sel])
        ref[sel] = dj / j
    keep = np.abs(ref) < 1e3
    dev = np.abs(tr.u_samples[keep] - ref[keep])
    return float(np.max(dev / np.maximum(1.0, np.abs(ref[keep]))))


def knot_zero(cells):
    """The first zero of J in ``knot_reference``'s cells, or None."""
    a, b, sol = cells[-1]
    if sol(b)[0] > 0.0:
        return None
    return brentq(lambda t: float(sol(t)[0]), a, b, xtol=1e-13)


class TestPropagatorReadout:
    """The readout against a direct launch of the linear equation."""

    @pytest.mark.parametrize("family", [hyperbolic_profile, oscillatory_profile])
    @pytest.mark.parametrize("span", [(0.0, 20.0), (0.0, -20.0)])
    def test_samples_equal_launched_log_derivative(self, family, span):
        rng = rng_for("readout-" + family.__name__)
        for _ in range(4):
            p = family(rng)
            for u0 in (-0.5 * p.k_bound, 0.0, 0.7, 2.0 * p.k_bound):
                tr = integrate_riccati(p, u0, span)
                assert launch_error(p, tr, u0, span) < 1e-8

    def test_blowup_is_first_zero_of_launch(self):
        rng = rng_for("readout-blowup")
        for _ in range(4):
            p = oscillatory_profile(rng)
            for u0, span in ((0.3, (0.0, 20.0)), (-0.4, (0.0, -20.0))):
                tr = integrate_riccati(p, u0, span)
                zero = launch_zero(p, u0, span)
                assert tr.blowup_time == pytest.approx(zero, abs=1e-8)
                # the samples stop short of the pole
                assert np.all(np.abs(tr.t_samples) < abs(zero))

    def test_pole_inside_first_scan_cell(self):
        # u' = -u^2 from u0 < 0: pole at 1/|u0|, inside the one knot cell of
        # a constant kappa = 0; the samples cover [0, pole) and follow the
        # closed form u = u0 / (1 + u0 t)
        for u0 in (-1e3, -1e9):
            tr = integrate_riccati(P_ZERO, u0, (0.0, 5.0))
            assert tr.blowup_time == pytest.approx(1.0 / abs(u0), rel=1e-9)
            assert tr.t_samples[0] == 0.0 and tr.u_samples[0] == u0
            assert tr.t_samples[-1] < tr.blowup_time
            np.testing.assert_allclose(tr.u_samples, u0 / (1.0 + u0 * tr.t_samples),
                                       rtol=1e-9)

    def test_spline_profile_reads_segmented_propagator(self):
        # the curvature along a torus orbit is a cubic spline on the orbit
        # window, integrated in propagator segments [0, 5], [5, 10], ...
        # DOP853 follows the spline to about 1e-7 only (its third derivative
        # jumps at every knot), and 1/J amplifies that near a pole. The
        # reference restarts at every knot, so it follows the spline to its
        # own tolerance; the readout is 1.2e-7, 3.1e-6 and 1.2e-6 from it
        rng = rng_for("readout-spline")
        model = random_torus(rng)
        p, orbit = model.profile(UnitTangent(0.1, 0.2, 0.5), 25.0, 1e-10, True)
        assert p.series is None and p.t_max == 25.0
        for u0, span in ((0.2, (0.0, 20.0)), (0.0, (3.0, 24.0)),
                         (-0.3, (20.0, 2.0))):
            tr = integrate_riccati(p, u0, span)
            cells = knot_reference(p, orbit.t_samples, u0, span)
            assert knot_error(tr, cells) < 1e-5
            assert tr.blowup_time == pytest.approx(knot_zero(cells), abs=1e-7)
        # spans read past the window [0, 25], where the spline would
        # extrapolate
        for span in ((24.0, 26.0), (20.0, 30.0), (1.0, -1.0), (0.0, -1.0)):
            with pytest.raises(InsufficientDataError):
                integrate_riccati(p, 0.0, span)

    def test_read_past_window_names_its_end(self):
        # the window end is named in the caller's time, not in that of the
        # shifted or flipped profile the read goes through
        model = random_torus(rng_for("readout-spline"))
        p, orbit = model.profile(UnitTangent(0.1, 0.2, 0.5), 25.0, 1e-10, True)
        for span, end in (((24.0, 26.0), "ends at t = 25$"),
                          ((20.0, 30.0), "ends at t = 25$"),
                          ((1.0, -1.0), "starts at t = 0$")):
            with pytest.raises(InsufficientDataError, match=end):
                integrate_riccati(p, 0.0, span)
        # integrate_jacobi is confined to the window too: the spline would
        # extrapolate far outside the curvature the orbit sees
        assert p.evaluator(-2.0) < 10 * float(np.min(orbit.kappa_samples))
        for span, end in (((0.0, -2.0), "starts at t = 0$"),
                          ((10.0, 26.0), "ends at t = 25$")):
            with pytest.raises(InsufficientDataError, match=end):
                integrate_jacobi(p, JacobiState(1.0, 0.0), span)
        assert integrate_jacobi(p, JacobiState(1.0, 0.0), (25.0, 0.0)).t1 == 0.0
        # a point span on the window end reads its data
        assert integrate_jacobi(p, JacobiState(1.0, 0.5),
                                (25.0, 25.0)).states(25.0).tolist() == [1.0, 0.5]

    def test_point_span_on_the_window_end(self):
        # a point span returns its data, with no scan past the window end
        model = random_torus(rng_for("readout-spline"))
        p, _ = model.profile(UnitTangent(0.1, 0.2, 0.5), 25.0, 1e-10, False)
        tr = integrate_riccati(p, 0.3, (25.0, 25.0))
        assert tr.blowup_time is None
        assert np.array_equal(tr.t_samples, np.full(riccati.N_SAMPLES, 25.0))
        assert np.array_equal(tr.u_samples, np.full(riccati.N_SAMPLES, 0.3))

    def test_span_from_t0_reads_shifted_profile(self):
        rng = rng_for("readout-shift")
        p = hyperbolic_profile(rng)
        for span, local in (((1.0, 11.0), (0.0, 10.0)), ((1.0, -9.0), (0.0, -10.0))):
            tr = integrate_riccati(p, 0.4, span)
            ref = integrate_riccati(p.shifted(1.0), 0.4, local)
            np.testing.assert_array_equal(tr.u_samples, ref.u_samples)
            np.testing.assert_allclose(tr.t_samples, 1.0 + ref.t_samples,
                                       rtol=0, atol=1e-14)

    def test_cancelled_samples_raise_instead_of_a_noise_pole(self):
        # the tenth hyperbolic profile drawn from default_rng(11), from its
        # computed stable slope: past the mixing horizon A + u0 Z cancels to
        # roundoff (to exactly 0 at 12 samples), and the zero scan reads a
        # "pole" at 21.95 in the noise. The samples name the first time the
        # cancellation reaches JACOBI_TOL of the terms instead, with no
        # numpy warning; starts 1e-9 off the slope, and the backward span,
        # read as before
        r = np.random.default_rng(11)
        for _ in range(10):
            c0 = -r.uniform(0.3, 1.0)
            amp, w = 0.25 * abs(c0), r.uniform(0.5, 2.0)
            a, b = amp * r.uniform(-1.0, 1.0), amp * r.uniform(-1.0, 1.0)
        p = CurvatureProfile.from_series(
            FourierSeries1D(const=c0, omega=w, cos_coeffs={1: a}, sin_coeffs={1: b}))
        span = 20.0 * 2.0 * math.pi / w
        u0 = green_both(p).u_plus0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientDataError, match=r"cancellation at t = 15\.7"):
                integrate_riccati(p, u0, (0.0, span))
            for u, pole in ((u0 + 1e-9, None), (u0 - 1e-9, pytest.approx(11.94, abs=0.01))):
                tr = integrate_riccati(p, u, (0.0, span))
                assert tr.blowup_time == pole
                assert np.all(np.isfinite(tr.u_samples))
            assert integrate_riccati(p, u0, (span, 0.0)).blowup_time is None
