import math

import numpy as np
import pytest

from magflow import (
    AbstractProfile,
    ConformalTorus,
    ConstantCurvature,
    FourierSeries2D,
    ResolutionError,
    UnitTangent,
    UnsupportedQueryError,
    gauss_bonnet_residual,
    gaussian_curvature,
    integral_inequality_check,
    magnetic_curvature,
    rotate_i,
    total_area,
)
from magflow import geometry
from families import random_torus, rng_for


def flat_torus(b_series=None):
    return ConformalTorus(phi=FourierSeries2D(), b=b_series or FourierSeries2D())


class TestRotation:
    def test_quarter_turn(self):
        v = rotate_i(UnitTangent(0.0, 0.0, 0.0))
        assert v.theta == pytest.approx(math.pi / 2)

    def test_double_turn_is_minus_identity(self):
        v = rotate_i(rotate_i(UnitTangent(0.3, 0.4, 1.1)))
        assert v.theta == pytest.approx(1.1 + math.pi)

    def test_metric_orthogonality_and_norms(self):
        # conformal metric: <v, iv>_g = exp(2 phi) * (Euclidean dot) = 0,
        # and the theta parameterization has unit norm by construction
        rng = rng_for("rotate")
        for _ in range(20):
            th = 2 * math.pi * rng.random()
            v = UnitTangent(rng.random(), rng.random(), th)
            iv = rotate_i(v)
            dot = math.cos(v.theta) * math.cos(iv.theta) + math.sin(v.theta) * math.sin(iv.theta)
            assert abs(dot) < 1e-15


class TestGaussianCurvature:
    def test_constant(self):
        m = ConstantCurvature(K=-1.0, b=0.0, chi=-2, area=4 * math.pi)
        assert gaussian_curvature(m, 0.3, 0.9) == -1.0

    def test_flat(self):
        assert gaussian_curvature(flat_torus(), 0.1, 0.7) == 0.0

    def test_single_mode_against_symbolic_oracle(self):
        # phi = 0.1*cos(2 pi x); K(0,0) = -exp(-0.2) * lap(phi)(0,0)
        # = +exp(-0.2) * 0.1 * 4 pi^2, frozen from symbolic differentiation
        torus = ConformalTorus(
            phi=FourierSeries2D(cos_coeffs={(1, 0): 0.1}), b=FourierSeries2D()
        )
        assert gaussian_curvature(torus, 0.0, 0.0) == pytest.approx(
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
        readers = (phi(x, y), phi.dx(x, y), phi.dy(x, y), phi.laplacian(x, y))
        for got, jet, want in zip(readers, phi.jet(x, y), oracle):
            assert got == jet == pytest.approx(want, rel=1e-12, abs=1e-15)
        torus = ConformalTorus(phi=phi, b=FourierSeries2D(Lx=1.0, Ly=3.0))
        assert gaussian_curvature(torus, x, y) == pytest.approx(
            -math.exp(-2.0 * oracle[0]) * oracle[3], rel=1e-12
        )

    def test_abstract_profile_has_no_pointwise_geometry(self):
        m = AbstractProfile(kappa=lambda t: -1.0, k_bound=1.1)
        with pytest.raises(UnsupportedQueryError):
            gaussian_curvature(m, 0.0, 0.0)
        with pytest.raises(UnsupportedQueryError):
            magnetic_curvature(m, UnitTangent())


class TestMagneticCurvature:
    def test_constant_hyperbolic_boundary_is_flat(self):
        m = ConstantCurvature(K=-1.0, b=1.0, chi=-2, area=4 * math.pi)
        for th in (0.0, 1.0, 2.5):
            assert magnetic_curvature(m, UnitTangent(0, 0, th)) == 0.0

    def test_sine_intensity_at_origin(self):
        # b = sin(2 pi x); at the origin b = 0 and grad b = (2 pi, 0)
        torus = flat_torus(FourierSeries2D(sin_coeffs={(1, 0): 1.0}))
        assert magnetic_curvature(torus, UnitTangent(0, 0, 0.0)) == pytest.approx(0.0, abs=1e-14)
        assert magnetic_curvature(torus, UnitTangent(0, 0, math.pi / 2)) == pytest.approx(
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
            assert magnetic_curvature(m, v) == pytest.approx(
                magnetic_curvature(m_neg, v_neg), rel=1e-12, abs=1e-12
            )


class TestGaussBonnet:
    def test_constant_exact(self):
        m = ConstantCurvature(K=-1.0, b=0.0, chi=-2, area=4 * math.pi)
        assert gauss_bonnet_residual(m) == pytest.approx(0.0, abs=1e-12)

    def test_flat_exact(self):
        assert gauss_bonnet_residual(flat_torus()) == 0.0

    def test_random_tori(self):
        rng = rng_for("gauss-bonnet")
        for _ in range(5):
            assert gauss_bonnet_residual(random_torus(rng)) < 1e-6

    def test_inconsistent_constant_model_rejected(self):
        with pytest.raises(ValueError):
            ConstantCurvature(K=-1.0, b=0.0, chi=-2, area=10.0)
        # Gauss-Bonnet holds here; the infinite intensity must still be refused
        with pytest.raises(ValueError):
            ConstantCurvature(K=-1.0, b=math.inf, chi=-2, area=4 * math.pi)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(geometry, "QUADRATURE_TOL", 0.0)
        rng = rng_for("resolution")
        with pytest.raises(ResolutionError):
            total_area(random_torus(rng))


class TestIntegralInequality:
    def test_constant_passing(self):
        m = ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=4 * math.pi)
        r = integral_inequality_check(m)
        assert r.lhs == pytest.approx(math.pi, rel=1e-15)
        assert r.rhs == pytest.approx(4 * math.pi, rel=1e-15)
        assert r.passes
        assert r.lambda_sq_max == pytest.approx(4.0, rel=1e-12)

    def test_constant_failing(self):
        m = ConstantCurvature(K=-1.0, b=1.5, chi=-2, area=4 * math.pi)
        r = integral_inequality_check(m)
        assert r.lhs == pytest.approx(9 * math.pi, rel=1e-15)
        assert not r.passes

    def test_equality_fails_strictness(self):
        m = ConstantCurvature(K=-1.0, b=1.0, chi=-2, area=4 * math.pi)
        r = integral_inequality_check(m)
        assert r.lhs == r.rhs
        assert not r.passes

    def test_torus_always_fails(self):
        rng = rng_for("torus-ineq")
        for b_const in (0.0, 0.3, 1.0):
            r = integral_inequality_check(random_torus(rng, b_const=b_const))
            assert r.rhs == 0.0
            assert not r.passes

    def test_nonnegative_chi_never_passes(self):
        m = ConstantCurvature(K=1.0, b=0.0, chi=2, area=4 * math.pi)
        assert not integral_inequality_check(m).passes


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
