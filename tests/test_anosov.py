import json
import math

import numpy as np
import pytest

from magflow import (
    AbstractProfile,
    ConformalTorus,
    ConstantCurvature,
    CurvatureProfile,
    FourierSeries1D,
    InsufficientDataError,
    JacobiState,
    SamplingConfig,
    UnitTangent,
    bounded_jacobi_witness,
    classify,
    contraction_fit,
    first_zero,
    green_both,
    green_slope,
    integrate_jacobi,
    integrate_orbit,
    negativity_criterion,
    unit_slope_trace,
)
from magflow import anosov, green
from magflow.anosov import WITNESS_WINDOW, growth_floor
from families import hyperbolic_profile, oscillatory_profile, random_torus, rng_for

P_NEG = CurvatureProfile.constant(-1.0)
P_ZERO = CurvatureProfile.constant(0.0)
AREA = 4 * math.pi


def half_wave_profile():
    """Nonpositive curvature vanishing on alternate half-periods."""
    return CurvatureProfile(
        evaluator=lambda t: -np.maximum(0.0, np.sin(np.asarray(t, dtype=float))) ** 2,
        k_bound=1.0,
    )


class TestConjugateScan:
    def test_positive_constant(self):
        assert first_zero(CurvatureProfile.constant(1.0), 10.0) == pytest.approx(
            math.pi, abs=1e-6
        )
        assert first_zero(CurvatureProfile.constant(4.0), 10.0) == pytest.approx(
            math.pi / 2, abs=1e-6
        )

    def test_hyperbolic_has_none(self):
        assert first_zero(P_NEG, 50.0) is None


class TestGap:
    def test_constant_hyperbolic(self):
        r = green_both(P_NEG)
        assert r.converged
        assert r.gap == pytest.approx(2.0, abs=1e-8)

    def test_flat(self):
        r = green_both(P_ZERO)
        assert r.converged
        assert 0.0 <= r.gap < 1e-8

    def test_half_wave(self):
        r = green_both(half_wave_profile())
        assert r.converged
        assert r.gap > 1e-3


def _witness(p):
    return bounded_jacobi_witness(p, p.flipped(), 1e-4, green_both(p))


def _fit(p):
    return contraction_fit(p, green_slope(p, "+"))


class TestWitness:
    def test_flat_witness_is_constant_field(self):
        w = _witness(P_ZERO)
        assert w is not None
        assert w.sup_norm == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(w.values - 1.0)) < 1e-6

    def test_hyperbolic_has_no_witness(self):
        assert _witness(P_NEG) is None

    def test_horocycle_boundary_model(self):
        # constant curvature -1 with unit intensity: curvature along
        # orbits is identically zero, the constant field is the witness
        m = ConstantCurvature(K=-1.0, b=1.0, chi=-2, area=AREA)
        w = _witness(m.profile(UnitTangent(), 1.0, 1e-10, False)[0])
        assert w is not None
        assert w.sup_norm == pytest.approx(1.0, abs=1e-6)

    def test_backward_half_reads_the_minus_profile(self):
        # a chart model's profiles cover [0, horizon] only: the backward half
        # is read forward along the minus profile, never before t = 0
        flat = CurvatureProfile(evaluator=lambda t: 0.0 * np.asarray(t), k_bound=0.5,
                                t_min=0.0, t_max=WITNESS_WINDOW)
        est = green_both(P_ZERO)
        w = bounded_jacobi_witness(flat, flat, 1e-4, est)
        assert w.sup_norm == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(w.values - 1.0)) < 1e-6
        with pytest.raises(InsufficientDataError, match="window ends"):
            bounded_jacobi_witness(flat, flat.flipped(), 1e-4, est)

    def test_equivalence_with_gap(self):
        # healthy gap: every direction between the slopes grows past any
        # bound in one of the two time directions
        est_gap = green_both(P_NEG)
        assert est_gap.gap > 1e-4
        mid = 0.0
        tr_f = integrate_jacobi(P_NEG, JacobiState(1.0, mid), (0.0, 20.0))
        tr_b = integrate_jacobi(P_NEG, JacobiState(1.0, mid), (0.0, -20.0))
        sup = max(np.max(np.abs(tr_f.values(np.linspace(0, 20, 201)))),
                  np.max(np.abs(tr_b.values(np.linspace(-20, 0, 201)))))
        assert sup > 1e3


class TestContraction:
    def test_unit_hyperbolic(self):
        fit = _fit(P_NEG)
        assert fit.success
        assert fit.c == pytest.approx(1.0, rel=0.05)
        assert fit.norm_end == pytest.approx(math.sqrt(2) * math.exp(-10.0), rel=0.05)
        assert fit.d == pytest.approx(math.sqrt(2), rel=0.05)

    def test_strong_hyperbolic(self):
        fit = _fit(CurvatureProfile.constant(-4.0))
        assert fit.c == pytest.approx(2.0, rel=0.05)

    def test_flat_fit_fails(self):
        fit = _fit(P_ZERO)
        assert not fit.success
        assert abs(fit.c) < 1e-3

    @pytest.mark.parametrize("K", [-1.0, -9.0, -12.0, -25.0, -100.0, -1e4])
    def test_window_ends_before_mixing(self, K):
        # the window [W / 10, W] with W = 10 / max(1, |u+|) ends before the
        # unstable component of the launch takes over
        fit = _fit(CurvatureProfile.constant(K))
        assert fit.success
        assert fit.c == pytest.approx(math.sqrt(-K), rel=1e-4)

    @pytest.mark.parametrize("K", [-9.0, -12.0, -25.0, -100.0])
    def test_strongly_hyperbolic_models_certify(self, K):
        rep = classify(ConstantCurvature(K=K, b=0.0, chi=-2, area=-4 * math.pi / K))
        assert rep.verdict == "NumericallyAnosov"
        assert rep.orbits[0].contraction.c == pytest.approx(math.sqrt(-K), rel=1e-4)

    def test_strongly_hyperbolic_profile_certifies(self):
        series = FourierSeries1D(const=-25.0, sin_coeffs={1: 0.3})
        rep = classify(AbstractProfile(kappa=series, k_bound=math.sqrt(25.3)))
        assert rep.verdict == "NumericallyAnosov"
        assert rep.orbits[0].contraction.c == pytest.approx(5.0, rel=0.01)


class TestSturmSign:
    def test_any_transverse_direction_flips_sign_between_conjugate_points(self):
        # between consecutive zeros of the unit-slope solution every other
        # solution changes sign (separation of zeros)
        for K in (1.0, 4.0):
            p = CurvatureProfile.constant(K)
            T = first_zero(p, 10.0)
            for slope in (-1.0, 0.0, 2.0):
                tr = integrate_jacobi(p, JacobiState(1.0, slope), (0.0, T))
                vals = tr.values(np.linspace(0.0, T, 400))
                assert np.min(vals) < 0.0 < np.max(vals)


class TestNegativity:
    @staticmethod
    def _criterion(m):
        from magflow.anosov import profile_extrema

        plus = m.profile(UnitTangent(), 1.0, 1e-10, False)[0]
        return negativity_criterion(m, [profile_extrema(plus)[0]])

    def test_negative_constant(self):
        r = self._criterion(ConstantCurvature(K=-1.0, b=0.0, chi=-2, area=AREA))
        assert r["applicable"] and r["passes"]

    def test_flat_fails(self):
        r = self._criterion(ConstantCurvature(K=-1.0, b=1.0, chi=-2, area=AREA))
        assert r["applicable"] and not r["passes"]

    def test_half_wave_passes(self):
        m = AbstractProfile(kappa=lambda t: -max(0.0, math.sin(t)) ** 2, k_bound=1.0)
        r = self._criterion(m)
        assert r["applicable"] and r["passes"]

    def test_positive_curvature_not_applicable(self):
        r = self._criterion(ConstantCurvature(K=1.0, b=0.0, chi=2, area=AREA))
        assert not r["applicable"]

    def test_torus_extrema_are_exact_over_the_angle(self):
        # the closed form bounds a dense sample of angles on the same chart
        # grid and is attained to the angular sampling error
        rng = rng_for("kappa-extrema")
        for _ in range(3):
            m = random_torus(rng)
            lo, hi = m.kappa_extrema()
            g = np.linspace(0.0, 1.0, 64, endpoint=False)
            X, Y, TH = np.meshgrid(g * m.Lx, g * m.Ly,
                                   np.linspace(0.0, 2 * math.pi, 360, endpoint=False),
                                   indexing="ij")
            k = m.magnetic_curvature(UnitTangent(X, Y, TH))
            tol = 1e-4 * (hi - lo)
            assert lo <= k.min() + 1e-12 and k.min() - lo < tol
            assert hi >= k.max() - 1e-12 and hi - k.max() < tol

    def test_orbit_without_minimum_fails(self):
        m = ConstantCurvature(K=-1.0, b=0.0, chi=-2, area=AREA)
        assert negativity_criterion(m, [-1.0, None]) == {
            "applicable": True, "passes": False}
        assert not negativity_criterion(m, [])["passes"]


class TestClassify:
    def test_anosov_constant_model(self):
        rep = classify(ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=AREA))
        assert rep.verdict == "NumericallyAnosov"
        o = rep.orbits[0]
        assert o.gap == pytest.approx(2 * math.sqrt(0.75), abs=1e-8)
        assert o.growth_A is not None and o.growth_A > 0.0

    def test_horocycle_boundary(self):
        rep = classify(ConstantCurvature(K=-1.0, b=1.0, chi=-2, area=AREA))
        assert rep.verdict == "NotAnosov"
        assert not rep.inequality["passes"]

    def test_conjugate_contrapositive(self):
        # the verdict through the conjugate scan alone: a profile model has no
        # integral inequality, and kappa = 0.44 is K + b**2 of K = -1, b = 1.2
        rep = classify(AbstractProfile(kappa=FourierSeries1D(const=0.44), k_bound=0.0))
        assert rep.inequality is None
        assert rep.verdict == "NotAnosov"
        assert "conjugate" in rep.reason
        assert rep.orbits[0].conjugate_time == pytest.approx(
            math.pi / math.sqrt(0.44), abs=1e-6
        )

    def test_torus_fails_by_topology(self):
        rng = rng_for("classify-torus")
        cfg = SamplingConfig(ensemble_count=2, horizon=30.0)
        rep = classify(random_torus(rng), cfg)
        assert rep.verdict == "NotAnosov"
        assert "euler characteristic" in rep.reason

    def test_half_wave_profile_model(self):
        m = AbstractProfile(kappa=lambda t: -max(0.0, math.sin(t)) ** 2, k_bound=1.0)
        rep = classify(m)
        assert rep.verdict == "NumericallyAnosov"
        assert rep.negativity == {"applicable": True, "passes": True}

    def test_nearly_flat_profile_is_not_refuted(self):
        # kappa = -1e-12 is hyperbolic; its converged gap 2e-6 is resolved
        # from zero but below the 1e-4 margin
        rep = classify(AbstractProfile(kappa=FourierSeries1D(const=-1e-12),
                                       k_bound=1.0))
        o = rep.orbits[0]
        assert o.gap_converged and o.gap == pytest.approx(2e-6, rel=1e-3)
        assert rep.verdict == "Inconclusive" and "margin" in rep.reason

    def test_nearly_flat_constant_model_is_not_refuted(self):
        # K + b**2 = -1e-300 < 0 is hyperbolic in closed form, though the
        # schedule resolves its gap only as far as a flat profile's
        rep = classify(ConstantCurvature(K=-1e-300, b=0.0, chi=-2,
                                         area=4 * math.pi * 1e300))
        assert rep.orbits[0].witness_sup is not None
        assert rep.verdict == "Inconclusive" and "margin" in rep.reason

    def test_negative_gap_is_recorded_without_witness(self, monkeypatch):
        # without the sign change of the reflected side the unstable slope
        # lies below the stable one: the estimate itself refuses the pair
        monkeypatch.setattr(green.GreenSide, "reflected", lambda self: self)
        witnesses = []
        monkeypatch.setattr(anosov, "bounded_jacobi_witness",
                            lambda *args: witnesses.append(args))
        series = FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3})
        rep = classify(AbstractProfile(kappa=series, k_bound=math.sqrt(1.3)))
        o = rep.orbits[0]
        assert o.error.startswith("NumericalInconsistencyError: negative "
                                  "transversality gap")
        assert o.gap is None and o.witness_sup is None and not witnesses
        assert rep.verdict == "Inconclusive" and rep.reason == o.error

    def test_flat_profile_model(self):
        rep = classify(AbstractProfile(kappa=lambda t: 0.0, k_bound=0.5))
        assert rep.verdict == "NotAnosov"
        assert rep.orbits[0].witness_sup == pytest.approx(1.0, abs=1e-6)

    @staticmethod
    def _assert_recorded(kappa):
        rep = classify(AbstractProfile(kappa=kappa, k_bound=1.0))
        assert rep.verdict == "Inconclusive"
        assert rep.orbits[0].error.startswith("InvalidProfileError: ")
        assert rep.reason == rep.orbits[0].error

    def test_nan_profile_is_rejected(self):
        # the typed error is recorded on the orbit, not raised
        self._assert_recorded(lambda t: math.nan)

    def test_violated_bound_is_recorded(self):
        self._assert_recorded(lambda t: -4.0)

    def test_report_serializes(self):
        rep = classify(ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=AREA))
        d = rep.to_dict()
        assert d["verdict"] == "NumericallyAnosov"
        assert d["orbits"][0]["gap"] is not None
        assert "tool_versions" in d


class TestEnsemble:
    def test_halton_determinism_and_ranges(self):
        rng = rng_for("ensemble")
        m = random_torus(rng)
        a = m.ensemble(16, seed=3)
        b = m.ensemble(16, seed=3)
        assert [(v.x, v.y, v.theta) for v in a] == [(v.x, v.y, v.theta) for v in b]
        assert all(0 <= v.x < 1 and 0 <= v.y < 1 and 0 <= v.theta < 2 * math.pi
                   for v in a)
        shifted = m.ensemble(16, seed=4)
        assert (a[1].x, a[1].y) == (shifted[0].x, shifted[0].y)

    def test_constant_model_collapses_to_one_orbit(self):
        m = ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=AREA)
        assert len(m.ensemble(64, seed=0)) == 1


class TestReversedOrbit:
    """The reversed-intensity orbit is integrated only for the gap."""

    def _integrations_per_orbit(self, monkeypatch, horizon):
        from magflow import ConformalTorus, FourierSeries2D, geometry

        calls = []
        real = geometry.integrate_orbit

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(geometry, "integrate_orbit", counted)
        # flat torus, b = 0.5: kappa = 0.25 everywhere, conjugate time 2 pi
        torus = ConformalTorus(phi=FourierSeries2D(), b=FourierSeries2D(const=0.5))
        rep = classify(torus, SamplingConfig(ensemble_count=2, horizon=horizon))
        assert len(rep.orbits) == 2
        return rep, len(calls) / 2

    def test_conjugate_point_skips_reversed_orbit(self, monkeypatch):
        rep, per_orbit = self._integrations_per_orbit(monkeypatch, 200.0)
        for o in rep.orbits:
            assert o.conjugate_time == pytest.approx(2 * math.pi, abs=1e-6)
        assert per_orbit == 1

    def test_reversed_orbit_without_conjugate_point(self, monkeypatch):
        # a window of 6 < 2 pi holds no conjugate point, so the gap stage
        # integrates the reversed orbit (and then finds the window too short)
        rep, per_orbit = self._integrations_per_orbit(monkeypatch, 6.0)
        assert all(o.conjugate_time is None for o in rep.orbits)
        assert per_orbit == 2


class TestGrowthFloor:
    def test_positive_on_hyperbolic_profiles(self):
        rng = rng_for("floor")
        for _ in range(3):
            p = hyperbolic_profile(rng)
            assert growth_floor(p, 20.0) > 1e-6

    def test_stored_scale_gives_the_unscaled_ratios(self):
        # constant and Fourier profiles read t > T from the monodromy powers,
        # whose binary exponents differ from time to time; an oscillatory
        # profile moves the running maximum
        rng = rng_for("floor-stored")
        ts = np.linspace(1.0, 20.0, 400)
        for p in (CurvatureProfile.constant(-0.75), hyperbolic_profile(rng),
                  oscillatory_profile(rng), oscillatory_profile(rng)):
            vals = np.abs(unit_slope_trace(p, 20.0).values(ts))
            assert growth_floor(p, 20.0) == float(np.min(vals / np.maximum.accumulate(vals)))

    def test_overflowing_solution_gives_a_finite_floor(self):
        # K = -1e4: Z = sinh(100 t) / 100 overflows double precision past
        # t ~ 7; it grows monotonically, so the floor is one
        rep = classify(ConstantCurvature(K=-1e4, b=0.0, chi=-2, area=4 * math.pi / 1e4))
        assert rep.verdict == "NumericallyAnosov"
        assert rep.orbits[0].growth_A == 1.0
        json.dumps(rep.to_dict(), allow_nan=False)


class TestVerdictLogic:
    """Aggregation invariants, exercised on synthetic orbit records."""

    def _verdict(self, results, chi=-2, inequality=None, cfg=None):
        from magflow.anosov import _verdict

        cfg = cfg or SamplingConfig()
        return _verdict(chi, False, inequality, results, cfg,
                        [r for r in results if r.error],
                        [r.orbit_id for r in results
                         if r.conjugate_time is None and r.gap is not None
                         and not r.gap_converged])

    def _good_orbit(self, i=0):
        from magflow.anosov import ContractionFit, OrbitResult

        return OrbitResult(
            orbit_id=i, initial=(0, 0, 0), gap=1.5, gap_converged=True,
            u_plus=-0.75, u_minus=0.75,
            contraction=ContractionFit(c=0.8, d=1.2, fit_residual=0.01,
                                       norm_end=1e-4, success=True),
        )

    def test_all_clear_certifies(self):
        v, _ = self._verdict([self._good_orbit(i) for i in range(3)])
        assert v == "NumericallyAnosov"

    def test_nonnegative_chi_blocks(self):
        v, reason = self._verdict([self._good_orbit()], chi=0)
        assert v == "NotAnosov" and "euler" in reason

    def test_failed_inequality_blocks(self):
        v, _ = self._verdict([self._good_orbit()],
                             inequality={"lhs": 5.0, "rhs": 4.0, "passes": False})
        assert v == "NotAnosov"

    def test_conjugate_point_blocks(self):
        from magflow.anosov import OrbitResult

        bad = OrbitResult(orbit_id=1, initial=(0, 0, 0), conjugate_time=3.14)
        v, reason = self._verdict([self._good_orbit(0), bad])
        assert v == "NotAnosov" and "conjugate" in reason

    def test_collapsed_gap_with_witness_blocks(self):
        from magflow.anosov import OrbitResult

        collapsed = OrbitResult(orbit_id=0, initial=(0, 0, 0), gap=1e-9,
                                gap_converged=True, witness_sup=1.0)
        v, reason = self._verdict([collapsed])
        assert v == "NotAnosov" and "witness" in reason

    def test_resolved_gap_below_margin_is_inconclusive(self):
        from magflow.anosov import OrbitResult

        # 2e-6 is 2000 green_tol from zero: resolved, so no witness refutes it
        narrow = OrbitResult(orbit_id=0, initial=(0, 0, 0), gap=2e-6,
                             gap_converged=True, witness_sup=1.0)
        v, reason = self._verdict([narrow])
        assert v == "Inconclusive" and "margin" in reason

    def test_inequality_error_blocks_certification(self):
        v, reason = self._verdict(
            [self._good_orbit()],
            inequality={"lhs": None, "rhs": None, "passes": None,
                        "lambda_sq_max": None, "error": "ResolutionError: grid"})
        assert v == "Inconclusive" and "ResolutionError" in reason
        v, _ = self._verdict(
            [self._good_orbit()], chi=0,
            inequality={"lhs": None, "rhs": None, "passes": None,
                        "lambda_sq_max": None, "error": "ResolutionError: grid"})
        assert v == "NotAnosov"

    def test_non_converged_is_inconclusive(self):
        from magflow.anosov import OrbitResult

        stuck = OrbitResult(orbit_id=0, initial=(0, 0, 0), gap=0.3,
                            gap_converged=False)
        v, _ = self._verdict([stuck])
        assert v == "Inconclusive"

    def test_suboperation_error_is_inconclusive(self):
        from magflow.anosov import OrbitResult

        broken = OrbitResult(orbit_id=0, initial=(0, 0, 0),
                             error="NumericalInconsistencyError: routes disagree")
        v, reason = self._verdict([broken])
        assert v == "Inconclusive" and "disagree" in reason

    def test_failed_contraction_is_inconclusive(self):
        o = self._good_orbit()
        o.contraction.success = False
        v, reason = self._verdict([o])
        assert v == "Inconclusive" and "contraction" in reason


class DelegatingSurface:
    """A surface model outside the package, with no magflow base class:
    every member of the ``SurfaceModel`` protocol reads a wrapped model."""

    def __init__(self, inner):
        self.inner = inner
        self.chi = inner.chi
        self.closed_form_hyperbolic = inner.closed_form_hyperbolic

    def rhs(self):
        return self.inner.rhs()

    def reduce(self, v):
        return self.inner.reduce(v)

    def magnetic_curvature(self, v):
        return self.inner.magnetic_curvature(v)

    def inequality(self):
        return self.inner.inequality()

    def kappa_extrema(self):
        return self.inner.kappa_extrema()

    def ensemble(self, count, seed):
        return self.inner.ensemble(count, seed)

    def profile(self, v0, horizon, tol, keep):
        # the trace is integrated from this model's own members
        trace = integrate_orbit(self, v0, horizon, tol) if keep else None
        return self.inner.profile(v0, horizon, tol, False)[0], trace

    def minus_profile(self, v0, plus, horizon, tol):
        return self.inner.minus_profile(v0, plus, horizon, tol)


class TestSurfaceProtocol:
    @pytest.mark.parametrize("b", [0.5, 1.0, 1.5])
    def test_a_fourth_surface_classifies_like_the_model_it_wraps(self, b):
        # b = 0.5 certifies, b = 1 is refuted by a witness and b = 1.5 by a
        # conjugate point
        inner = ConstantCurvature(K=-1.0, b=b, chi=-2, area=AREA)
        outer = DelegatingSurface(inner)
        assert not isinstance(outer, (ConstantCurvature, ConformalTorus, AbstractProfile))
        cfg = SamplingConfig(horizon=30.0)
        got, want = classify(outer, cfg, keep_traces=1), classify(inner, cfg, keep_traces=1)
        assert got.to_dict() == want.to_dict()
        for name in ("t_samples", "xs", "ys", "thetas", "kappa_samples"):
            np.testing.assert_array_equal(getattr(got.orbits[0].trace, name),
                                          getattr(want.orbits[0].trace, name))
