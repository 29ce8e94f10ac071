import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import magflow
from magflow import (
    AbstractProfile,
    ConjugatePointError,
    CurvatureProfile,
    FourierSeries1D,
    InsufficientDataError,
    JacobiState,
    NumericalInconsistencyError,
    classify,
    first_zero,
    green,
    green_both,
    green_slope,
    integrate_jacobi,
    invariance_residual,
    solve_boundary,
)
from families import hyperbolic_profile, negative_r_slope_limit, rng_for

P_NEG = CurvatureProfile.constant(-1.0)
P_ZERO = CurvatureProfile.constant(0.0)


class TestBoundarySlope:
    def test_flat(self):
        assert solve_boundary(P_ZERO, 2.0, cross_check=False).slope0 == pytest.approx(
            -0.5, abs=1e-11
        )

    def test_hyperbolic(self):
        assert solve_boundary(P_NEG, 1.0, cross_check=False).slope0 == pytest.approx(
            -1.0 / math.tanh(1.0), rel=1e-11
        )

    def test_negative_branch(self):
        assert solve_boundary(P_NEG, -1.0, cross_check=False).slope0 == pytest.approx(
            1.0 / math.tanh(1.0), rel=1e-11
        )


class TestGreenSlope:
    def test_constant_hyperbolic(self):
        est = green_slope(P_NEG, "+")
        assert est.plus.converged
        assert est.u_plus0 == pytest.approx(-1.0, abs=1e-8)
        est_m = green_slope(P_NEG, "-")
        assert est_m.u_minus0 == pytest.approx(1.0, abs=1e-8)

    def test_strongly_hyperbolic(self):
        est = green_slope(CurvatureProfile.constant(-4.0), "+")
        assert est.u_plus0 == pytest.approx(-2.0, abs=1e-8)

    def test_flat_limit(self):
        est = green_both(P_ZERO)
        assert abs(est.u_plus0) < 1e-5
        assert abs(est.u_minus0) < 1e-5
        assert est.gap < 1e-8
        assert est.gap >= 0.0

    def test_slope_bound(self):
        rng = rng_for("slope-bound")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            est = green_both(p)
            assert est.converged
            assert abs(est.u_plus0) <= p.k_bound + 1e-6
            assert abs(est.u_minus0) <= p.k_bound + 1e-6
            assert est.gap >= -1e-8

    def test_monotone_schedule(self):
        # strictly increasing until the increments saturate at roundoff. A
        # Fourier profile reads its slope from the monodromy, so the schedule
        # runs on the same curve read as a plain callable, and ends at the
        # monodromy's slope
        rng = rng_for("monotone")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            side = green_slope(CurvatureProfile(evaluator=p.series, k_bound=p.k_bound),
                               "+").plus
            diffs = np.diff(side.slopes)
            assert np.all(diffs >= 0.0)
            assert np.all(diffs[np.abs(diffs) > 1e-14] > 0.0)
            assert diffs[0] > 0.0
            assert side.slope == pytest.approx(green_slope(p, "+").u_plus0, abs=1e-9)

    def test_conjugate_point_blocks_schedule(self):
        with pytest.raises(ConjugatePointError):
            green_slope(CurvatureProfile.constant(1.0), "+")

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            green_slope(P_NEG, "x")


def _callable(kappa, k_bound):
    """A callable profile (no series, no monodromy), read as
    ``AbstractProfile.curvature`` reads one."""
    return AbstractProfile(kappa=kappa, k_bound=k_bound).curvature()


class TestScheduleGates:
    """Each gate of the doubling schedule, reached on a profile built to
    trip it."""

    def test_conjugate_point_on_the_minus_side_is_the_orbit_verdict(self):
        # kappa = -1 forward of zero and 4 behind it: the plus scan sees no
        # zero, and the minus schedule's own scan finds the one at pi / 2
        rep = classify(AbstractProfile(lambda t: 4.0 if t < 0 else -1.0, 1.0))
        assert rep.verdict == "NotAnosov"
        assert rep.orbits[0].conjugate_time == pytest.approx(math.pi / 2, rel=1e-9)
        assert rep.orbits[0].u_plus is None

    def test_zero_past_the_first_break_is_caught_on_the_grid(self):
        # kappa = 4 behind t = -6: the minus side's zero at 6 + (pi - atan 2) / 2
        # lies in (R0, 2 R0], where the schedule's scan of (0, 2 R0] refines
        # it to the exact zero
        kappa = lambda t: 4.0 if t < -6 else -1.0  # noqa: E731
        true_zero = 6.0 + 0.5 * (math.pi - math.atan(2.0 * math.tanh(6.0)))
        assert first_zero(_callable(kappa, 1.0).flipped(), 10.0) == pytest.approx(
            true_zero, rel=1e-9)
        assert true_zero == pytest.approx(7.0172, abs=1e-4)
        rep = classify(AbstractProfile(kappa, 1.0))
        assert rep.verdict == "NotAnosov"
        assert rep.orbits[0].conjugate_time == pytest.approx(true_zero, rel=1e-9)

    @pytest.mark.parametrize("height", [4000.0, 7000.0, 9000.0])
    def test_two_zeros_between_old_guard_samples_are_caught(self, height):
        # a bump of width 0.03 behind t = -15.078: the minus side's unit-slope
        # solution vanishes twice near s = 15.07 (at 15.06598 and 15.10565 for
        # height 7000), both inside (15.0, 15.15625], one cell of a 64-point
        # sign guard on (10, 20], which saw no sign change there
        from scipy.integrate import solve_ivp
        from scipy.optimize import brentq

        kappa = lambda t: -1.0 + height * np.exp(-((t + 15.078) / 0.03) ** 2)  # noqa: E731
        rep = classify(AbstractProfile(kappa, 1.0))
        assert rep.verdict == "NotAnosov"
        # the reference: a fine DOP853 run on the reflected profile, its
        # dense output scanned every 1e-4 and the first zero refined
        ref = solve_ivp(lambda s, y: [y[1], -kappa(-s) * y[0]], (0.0, 15.2), [0.0, 1.0],
                        method="DOP853", rtol=1e-13, atol=1e-13, max_step=0.01,
                        dense_output=True)
        grid = np.arange(14.9, 15.2, 1e-4)
        z = ref.sol(grid)[0]
        i = int(np.nonzero(z <= 0.0)[0][0])
        zero = brentq(lambda s: ref.sol(s)[0], grid[i - 1], grid[i], xtol=1e-14)
        assert 15.0 < zero < 15.15625
        assert rep.orbits[0].conjugate_time == pytest.approx(zero, rel=1e-9)

    @pytest.mark.parametrize("kappa, verdict", [
        (lambda t: 0.0, "NotAnosov"),  # criterion 12's flat profile
        (FourierSeries1D(const=0.0, cos_coeffs={1: 1e-6}), "NotAnosov"),
    ])
    def test_schedules_end_within_bounded_work(self, kappa, verdict):
        # the flat slopes converge at r near 1.3e9, read in closed form with
        # a scan of no knot; 1e-6 cos t runs no schedule: its elliptic
        # monodromy puts the first conjugate point near t = 4.45e6, and the
        # scan reads two periods and the four Floquet predicts
        start = time.perf_counter()
        rep = classify(AbstractProfile(kappa=kappa, k_bound=0.5))
        assert time.perf_counter() - start < 2.0
        assert rep.verdict == verdict

    def test_slope_past_the_declared_bound(self):
        # kappa = -4 has the stable slope -2, past a declared k_bound of 0.5
        # (which classify's sample validation refuses before any schedule)
        with pytest.raises(NumericalInconsistencyError,
                           match="slope -2 exceeds the curvature bound k = 0.5"):
            green_slope(_callable(lambda t: -4.0, 0.5), "+")

    def test_decreasing_slopes(self, monkeypatch):
        monkeypatch.setattr(magflow.jacobi.Propagator, "slope", lambda self, r: -r)
        with pytest.raises(NumericalInconsistencyError, match="decreased by 5 at r = 10"):
            green_slope(_callable(lambda t: -1.0, 1.0), "+")

    def test_work_budget_ends_the_schedule_unconverged(self, monkeypatch):
        half_wave = lambda t: -max(0.0, math.sin(t)) ** 2  # noqa: E731
        full = green_slope(_callable(half_wave, 1.0), "+").plus
        assert full.converged and len(full.r_schedule) > 2
        monkeypatch.setattr(green, "WORK_BUDGET", 1)
        side = green_slope(_callable(half_wave, 1.0), "+").plus
        assert not side.converged
        assert side.r_schedule == [green.R0]
        assert side.slope == full.slopes[0]
        rep = classify(AbstractProfile(half_wave, 1.0))
        assert rep.verdict == "Inconclusive"
        assert rep.non_converged == [0]


class TestFlipDuality:
    def test_against_independent_negative_r_limit(self):
        rng = rng_for("flip-duality")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            u_minus_flip = green_slope(p, "-").u_minus0
            u_minus_direct = negative_r_slope_limit(p)
            assert u_minus_flip == pytest.approx(u_minus_direct, abs=1e-8)

    def test_stable_of_flip_is_minus_unstable(self):
        rng = rng_for("flip-duality-2")
        for _ in range(5):
            p = hyperbolic_profile(rng)
            lhs = green_slope(p.flipped(), "+").u_plus0
            rhs = -green_slope(p, "-").u_minus0
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestNeverVanishing:
    def test_stable_field_has_no_zeros(self):
        # launch from the stable slope nudged one residual-width toward
        # the unstable side, so the unavoidable slope error cannot flip
        # the sign of the decaying branch inside the window
        rng = rng_for("nonvanish")
        for _ in range(4):
            p = hyperbolic_profile(rng)
            est = green_slope(p, "+")
            assert est.plus.converged
            nudge = 10.0 * max(est.plus.residual, 1e-12)
            tr_f = integrate_jacobi(p, JacobiState(1.0, est.u_plus0 + nudge), (0.0, 50.0))
            tr_b = integrate_jacobi(p, JacobiState(1.0, est.u_plus0), (0.0, -50.0))
            ts = np.linspace(0.0, 50.0, 2001)
            assert np.min(tr_f.values(ts)) > 0.0
            assert np.min(tr_b.values(-ts)) > 0.0


class TestInvariance:
    def test_constant_profile_fixed_point(self):
        assert invariance_residual(P_NEG, 5.0) < 1e-9

    def test_oscillating_profile(self):
        p = CurvatureProfile.from_series(
            FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3})
        )
        assert invariance_residual(p, 1.0) < 1e-6
        assert invariance_residual(p, math.pi) < 1e-6

    def test_long_times_stay_finite(self):
        # A and Z overflow past t ~ 700; both maps read the stored scale
        p = CurvatureProfile.from_series(
            FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3})
        )
        for t in (1000.0, 1e4):
            assert invariance_residual(p, t) < 1e-6

    def test_flip_consistency(self):
        p = CurvatureProfile.from_series(
            FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3})
        )
        fwd = invariance_residual(p, 2.0)
        flipped = invariance_residual(p.flipped(), 2.0)
        assert abs(fwd - flipped) < 1e-8

    def test_negative_time(self):
        # t < 0 checks the same two base points with their roles swapped
        p = CurvatureProfile.from_series(
            FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3})
        )
        assert invariance_residual(p, -1.0) < 1e-6
        assert invariance_residual(P_NEG, -5.0) < 1e-9

    def test_runs_without_mpmath(self):
        code = (
            "import math, sys\n"
            "from magflow import CurvatureProfile, FourierSeries1D, invariance_residual\n"
            "p = CurvatureProfile.from_series(FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}))\n"
            "assert max(invariance_residual(p, t) for t in (1.0, math.pi, 10.0)) < 1e-6\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(magflow.__file__))
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_spline_profile(self):
        # spline-backed profiles are confined to their window; the unstable
        # schedule needs more than ten time units behind zero to converge
        from scipy.interpolate import CubicSpline

        def spline(t_min):
            ts = np.linspace(t_min, 40.0, int(100 * (40.0 - t_min)) + 1)
            return CurvatureProfile(
                evaluator=CubicSpline(ts, -1.0 + 0.3 * np.sin(ts)),
                k_bound=math.sqrt(1.3), t_min=t_min, t_max=40.0,
            )

        with pytest.raises(InsufficientDataError):
            invariance_residual(spline(-10.0), 1.0)
        assert invariance_residual(spline(-40.0), 1.0) < 1e-6


class TestFloquetOracle:
    def test_slopes_are_the_monodromy_eigen_slopes(self):
        # Hill's equation: over one period T the stable and unstable lines
        # are the eigenlines of the monodromy M = [[A, Z], [A', Z']](T), so
        # the slopes solve Z u^2 + (A - Z') u - A' = 0; the stable root has
        # multiplier |A + Z u| < 1. M comes from one direct launch.
        from magflow import jacobi

        rng = rng_for("floquet-oracle")
        for _ in range(20):
            p = hyperbolic_profile(rng)
            period = 2 * math.pi / p.series.omega
            sol = jacobi._launch(p.evaluator, [1.0, 0.0, 0.0, 1.0], (0.0, period))
            a, da, z, dz = sol.y[:, -1]
            b = a - dz
            q = -0.5 * (b + math.copysign(math.sqrt(b * b + 4 * z * da), b))
            roots = (q / z, -da / q)
            stable = min(roots, key=lambda u: abs(a + z * u))
            unstable = max(roots, key=lambda u: abs(a + z * u))
            assert abs(a + z * stable) < 1.0 < abs(a + z * unstable)
            est = green_both(p)
            assert est.converged
            assert est.u_plus0 == pytest.approx(stable, abs=1e-10)
            assert est.u_minus0 == pytest.approx(unstable, abs=1e-10)
