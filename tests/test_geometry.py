import math
import warnings

import numpy as np
import pytest

from magflow import (
    AbstractProfile,
    ConformalTorus,
    ConstantCurvature,
    FourierSeries1D,
    FourierSeries2D,
    InvalidProfileError,
    ResolutionError,
    UnitTangent,
    classify,
)
from magflow import geometry
from families import random_torus, rng_for


def flat_torus(b_series=None):
    return ConformalTorus(phi=FourierSeries2D(), b=b_series or FourierSeries2D())


class TestGaussianCurvature:
    """With b = 0 the magnetic curvature is the Gaussian curvature K."""

    def test_constant(self):
        m = ConstantCurvature(K=-1.0, b=0.0, chi=-2, area=4 * math.pi)
        assert m.profile(UnitTangent(0.3, 0.9, 1.2), 1.0)[0].const_value == -1.0

    def test_flat(self):
        assert flat_torus().magnetic_curvature(UnitTangent(0.1, 0.7, 2.0)) == 0.0

    def test_single_mode_against_symbolic_oracle(self):
        # phi = 0.1*cos(2 pi x); K(0,0) = -exp(-0.2) * lap(phi)(0,0)
        # = +exp(-0.2) * 0.1 * 4 pi^2, frozen from symbolic differentiation
        torus = ConformalTorus(
            phi=FourierSeries2D(cos_coeffs={(1, 0): 0.1}), b=FourierSeries2D()
        )
        for th in (0.0, 1.0, 4.0):
            assert torus.magnetic_curvature(UnitTangent(0.0, 0.0, th)) == pytest.approx(
                3.2322194575542619, rel=1e-12
            )
        # two modes on periods (1, 3), the (1, 2) mode with both amplitudes:
        # phi = 0.1 cos(u) + 0.05 cos(w) + 0.02 sin(w), u = 2 pi x,
        # w = 2 pi (x + 2 y / 3), differentiated by hand
        phi = FourierSeries2D(Lx=1.0, Ly=3.0, cos_coeffs={(1, 0): 0.1, (1, 2): 0.05},
                              sin_coeffs={(1, 2): 0.02})
        x, y, tp = 0.3, 0.7, 2.0 * math.pi
        u, w = tp * x, tp * (x + 2.0 * y / 3.0)
        dw = -0.05 * math.sin(w) + 0.02 * math.cos(w)
        oracle = (
            0.1 * math.cos(u) + 0.05 * math.cos(w) + 0.02 * math.sin(w),
            -0.1 * tp * math.sin(u) + tp * dw,
            tp * 2.0 / 3.0 * dw,
            -tp**2 * 0.1 * math.cos(u)
            - tp**2 * (1.0 + 4.0 / 9.0) * (0.05 * math.cos(w) + 0.02 * math.sin(w)),
        )
        jet = phi.jet(x, y)
        for got, want in zip(jet, oracle):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert phi(x, y) == jet[0]
        torus = ConformalTorus(phi=phi, b=FourierSeries2D(Lx=1.0, Ly=3.0))
        assert torus.magnetic_curvature(UnitTangent(x, y, 0.4)) == pytest.approx(
            -math.exp(-2.0 * oracle[0]) * oracle[3], rel=1e-12
        )

    def test_scaled_series(self):
        b = FourierSeries2D(Lx=2.0, Ly=3.0, const=0.4, cos_coeffs={(1, 0): 0.3},
                            sin_coeffs={(0, 1): -0.2, (1, 1): 0.1})
        assert b.scaled(2.0) == FourierSeries2D(
            Lx=2.0, Ly=3.0, const=0.8, cos_coeffs={(1, 0): 0.6},
            sin_coeffs={(0, 1): -0.4, (1, 1): 0.2})
        flipped = ConformalTorus(phi=FourierSeries2D(Lx=2.0, Ly=3.0), b=b).flipped().b
        assert flipped.modes == tuple((m, n, -a, -c) for m, n, a, c in b.modes)
        assert flipped.const == -b.const


class TestMagneticCurvature:
    def test_constant_hyperbolic_boundary_is_flat(self):
        m = ConstantCurvature(K=-1.0, b=1.0, chi=-2, area=4 * math.pi)
        for th in (0.0, 1.0, 2.5):
            assert m.profile(UnitTangent(0, 0, th), 1.0)[0].const_value == 0.0

    def test_sine_intensity_at_origin(self):
        # b = sin(2 pi x); at the origin b = 0 and grad b = (2 pi, 0)
        torus = flat_torus(FourierSeries2D(sin_coeffs={(1, 0): 1.0}))
        assert torus.magnetic_curvature(UnitTangent(0, 0, 0.0)) == pytest.approx(0.0, abs=1e-14)
        assert torus.magnetic_curvature(UnitTangent(0, 0, math.pi / 2)) == pytest.approx(
            2 * math.pi, rel=1e-12
        )

    def test_orientation_coherence(self):
        # reversing both the intensity sign and the velocity leaves the
        # curvature unchanged
        rng = rng_for("coherence")
        m = random_torus(rng)
        m_neg = ConformalTorus(
            phi=m.phi,
            b=FourierSeries2D(
                Lx=m.b.Lx, Ly=m.b.Ly, const=-m.b.const,
                cos_coeffs={k: -v for k, v in m.b.cos_coeffs.items()},
                sin_coeffs={k: -v for k, v in m.b.sin_coeffs.items()},
            ),
        )
        for _ in range(25):
            v = UnitTangent(rng.random(), rng.random(), 2 * math.pi * rng.random())
            v_neg = UnitTangent(v.x, v.y, v.theta + math.pi)
            assert m.magnetic_curvature(v) == pytest.approx(
                m_neg.magnetic_curvature(v_neg), rel=1e-12, abs=1e-12
            )


class TestGaussBonnet:
    def test_inconsistent_constant_model_rejected(self):
        with pytest.raises(ValueError):
            ConstantCurvature(K=-1.0, b=0.0, chi=-2, area=10.0)
        # Gauss-Bonnet holds here; the infinite intensity must still be refused
        with pytest.raises(ValueError):
            ConstantCurvature(K=-1.0, b=math.inf, chi=-2, area=4 * math.pi)


class TestIntegralInequality:
    def test_constant_passing(self):
        m = ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=4 * math.pi)
        r = m.inequality()
        assert r.lhs == pytest.approx(math.pi, rel=1e-15)
        assert r.rhs == pytest.approx(4 * math.pi, rel=1e-15)
        assert r.passes
        assert r.lambda_sq_max == pytest.approx(4.0, rel=1e-12)

    def test_constant_failing(self):
        m = ConstantCurvature(K=-1.0, b=1.5, chi=-2, area=4 * math.pi)
        r = m.inequality()
        assert r.lhs == pytest.approx(9 * math.pi, rel=1e-15)
        assert not r.passes

    def test_equality_fails_strictness(self):
        m = ConstantCurvature(K=-1.0, b=1.0, chi=-2, area=4 * math.pi)
        r = m.inequality()
        assert r.lhs == r.rhs
        assert not r.passes

    def test_torus_always_fails(self):
        rng = rng_for("torus-ineq")
        for b_const in (0.0, 0.3, 1.0):
            r = random_torus(rng, b_const=b_const).inequality()
            assert r.rhs == 0.0
            assert not r.passes

    def test_unit_intensity_reads_the_area(self):
        # with b = 1 the lhs is the integral of exp(2 phi), the area: the
        # cell itself on a flat torus, and for phi = a cos(2 pi x) +
        # c cos(2 pi y / 3) the product 3 I0(2a) I0(2c) of Bessel functions
        one = FourierSeries2D(Lx=2.0, Ly=3.0, const=1.0)
        r = ConformalTorus(phi=FourierSeries2D(Lx=2.0, Ly=3.0), b=one).inequality()
        assert r.lhs == pytest.approx(6.0, rel=1e-14)
        phi = FourierSeries2D(Ly=3.0, cos_coeffs={(1, 0): 0.1, (0, 1): 0.3})
        r = ConformalTorus(phi=phi, b=FourierSeries2D(Ly=3.0, const=1.0)).inequality()
        assert r.lhs == pytest.approx(3.0 * np.i0(0.2) * np.i0(0.6), rel=1e-12)
        assert r.rhs == 0.0 and not r.passes

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(geometry, "QUADRATURE_TOL", 0.0)
        rng = rng_for("resolution")
        with pytest.raises(ResolutionError):
            random_torus(rng).inequality()

    def test_nonnegative_chi_never_passes(self):
        m = ConstantCurvature(K=1.0, b=0.0, chi=2, area=4 * math.pi)
        assert not m.inequality().passes


class TestAbstractProfileModel:
    def test_declared_bound_validated(self):
        m = AbstractProfile(kappa=lambda t: -1.0 + 0.3 * math.sin(t), k_bound=1.2)
        m.validate_window(0.0, 50.0)

    def test_violated_bound_rejected(self):
        m = AbstractProfile(kappa=lambda t: -4.0, k_bound=1.0)
        with pytest.raises(ValueError):
            m.validate_window(0.0, 10.0)
        # a NaN sample compares false against any bound
        m = AbstractProfile(kappa=lambda t: math.nan, k_bound=1.0)
        with pytest.raises(ValueError):
            m.validate_window(0.0, 10.0)

    @pytest.mark.parametrize("value", [None, "x", 1j], ids=["none", "str", "complex"])
    def test_sample_that_is_no_real_number_is_typed(self, value):
        # each sample is read by float(): what it cannot read is an invalid
        # profile, and classify records it on the orbit
        m = AbstractProfile(kappa=lambda t: value, k_bound=1.0)
        with pytest.raises(InvalidProfileError, match="not a real number"):
            m.validate_window(0.0, 10.0)
        rep = classify(m)
        assert rep.verdict == "Inconclusive"
        assert rep.orbits[0].error.startswith("InvalidProfileError: kappa is not a real number")

    def test_overflowing_samples_are_typed(self):
        # 1e308 + 1e308 cos t overflows on the sample grid: both reads take
        # the samples without a RuntimeWarning, and the window check names them
        m = AbstractProfile(kappa=FourierSeries1D(const=1e308, cos_coeffs={1: 1e308}),
                            k_bound=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = classify(m)
        assert rep.verdict == "Inconclusive"
        assert rep.orbits[0].error == "InvalidProfileError: kappa is not finite on [0, 100]"
