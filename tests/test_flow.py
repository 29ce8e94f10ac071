import math

import numpy as np
import pytest

from magflow import (
    AbstractProfile,
    ConformalTorus,
    ConstantCurvature,
    CurvatureProfile,
    FourierSeries1D,
    FourierSeries2D,
    InsufficientDataError,
    UnitTangent,
    curvature_profile,
    flip_intensity,
    integrate_orbit,
    magnetic_curvature,
)
from families import random_torus, rng_for


def flat_torus(b_const=0.0):
    return ConformalTorus(phi=FourierSeries2D(), b=FourierSeries2D(const=b_const))


def torus_distance(a, b, L=1.0):
    d = abs(a - b) % L
    return min(d, L - d)


class TestOrbits:
    def test_flat_geodesic_is_a_line(self):
        tr = integrate_orbit(flat_torus(0.0), UnitTangent(0.0, 0.0, 0.0), 5.0,
                             tol=1e-11)
        assert np.max(np.abs(tr.thetas)) < 1e-12
        d = np.abs(tr.xs - tr.t_samples % 1.0) % 1.0
        assert np.max(np.minimum(d, 1.0 - d)) < 1e-9
        assert np.max(np.abs(tr.ys)) < 1e-12

    def test_flat_magnetic_circle(self):
        # b = 1 in the flat chart turns at unit rate: closed form
        # theta = theta0 + t, x = x0 + sin(theta0+t) - sin(theta0)
        th0, x0, y0 = 0.7, 0.2, 0.9
        tr = integrate_orbit(flat_torus(1.0), UnitTangent(x0, y0, th0), 4 * math.pi,
                             tol=1e-11)
        ts = tr.t_samples
        assert np.max(np.abs(tr.thetas - (th0 + ts))) < 1e-9
        dx = np.abs(tr.xs - (x0 + np.sin(th0 + ts) - math.sin(th0))) % 1.0
        dy = np.abs(tr.ys - (y0 - np.cos(th0 + ts) + math.cos(th0))) % 1.0
        assert np.max(np.minimum(dx, 1.0 - dx)) < 1e-9
        assert np.max(np.minimum(dy, 1.0 - dy)) < 1e-9
        assert np.max(np.abs(tr.kappa_samples - 1.0)) < 1e-12

    def test_constant_model_degenerate_trace(self):
        m = ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=4 * math.pi)
        tr = integrate_orbit(m, UnitTangent(0, 0, 0.3), 3.0)
        assert np.all(tr.kappa_samples == -0.75)
        assert np.all(tr.thetas == 0.3)

    def test_unit_speed_defect(self):
        rng = rng_for("speed")
        tr = integrate_orbit(random_torus(rng), UnitTangent(0.1, 0.2, 0.5), 100.0,
                             tol=1e-10)
        assert tr.unit_speed_defect() < 1e-10

    def test_kappa_samples_match_pointwise_curvature(self):
        rng = rng_for("kappa-match")
        m = random_torus(rng)
        tr = integrate_orbit(m, UnitTangent(0.4, 0.1, 1.2), 5.0)
        for i in range(len(tr.t_samples)):
            assert tr.kappa_samples[i] == pytest.approx(
                magnetic_curvature(m, tr.state(i)), abs=1e-12
            )

    def test_reversibility_through_intensity_flip(self):
        # forward under (g, b), then forward under (g, -b) from the flipped
        # endpoint, lands back on the flipped start
        rng = rng_for("reversible")
        m = random_torus(rng, b_const=0.5)
        v0 = UnitTangent(0.1, 0.25, 0.6)
        T = 10.0
        tr = integrate_orbit(m, v0, T, tol=1e-12)
        end = tr.state(len(tr.t_samples) - 1)
        back = integrate_orbit(
            flip_intensity(m), UnitTangent(end.x, end.y, end.theta + math.pi),
            T, tol=1e-12,
        )
        fin = back.state(len(back.t_samples) - 1)
        dth = abs((fin.theta - (v0.theta + math.pi)) % (2 * math.pi))
        dth = min(dth, 2 * math.pi - dth)
        assert torus_distance(fin.x, v0.x) < 1e-7
        assert torus_distance(fin.y, v0.y) < 1e-7
        assert dth < 1e-7

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            integrate_orbit(flat_torus(), UnitTangent(), -1.0)

    def test_csv_export(self, tmp_path):
        tr = integrate_orbit(flat_torus(1.0), UnitTangent(), 1.0)
        path = tmp_path / "orbit.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x,y,theta,kappa"


class TestCurvatureProfiles:
    def test_constant_model_profile(self):
        m = ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=4 * math.pi)
        p = curvature_profile(m)
        assert float(p.evaluator(3.7)) == pytest.approx(-0.75, abs=1e-15)
        assert p.is_constant

    def test_flat_circle_profile(self):
        p = curvature_profile(flat_torus(1.0),
                              integrate_orbit(flat_torus(1.0), UnitTangent(), 5.0))
        assert float(p.evaluator(2.3)) == pytest.approx(1.0, abs=1e-10)

    def test_abstract_passthrough(self):
        m = AbstractProfile(kappa=lambda t: -1.0 + 0.3 * math.sin(t),
                            k_bound=math.sqrt(1.3))
        p = curvature_profile(m)
        assert float(p.evaluator(1.5)) == pytest.approx(-1.0 + 0.3 * math.sin(1.5))
        assert p.k_bound >= math.sqrt(1.3) - 1e-12

    def test_spline_reproduces_samples(self):
        rng = rng_for("fidelity")
        m = random_torus(rng)
        tr = integrate_orbit(m, UnitTangent(0.3, 0.6, 2.0), 8.0)
        p = curvature_profile(m, tr)
        vals = p.evaluator(tr.t_samples)
        assert np.max(np.abs(vals - tr.kappa_samples)) < 1e-13

    def test_insufficient_samples_rejected(self):
        rng = rng_for("short")
        m = random_torus(rng)
        tr = integrate_orbit(m, UnitTangent(), 0.02)
        with pytest.raises(InsufficientDataError):
            curvature_profile(m, tr)

    def test_profile_shift_and_flip(self):
        series = FourierSeries1D(const=-1.0, omega=1.0, sin_coeffs={1: 0.3})
        p = CurvatureProfile.from_series(series)
        ts = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(p.shifted(2.0).evaluator(ts),
                                   p.evaluator(ts + 2.0), atol=1e-14)
        np.testing.assert_allclose(p.flipped().evaluator(ts),
                                   p.evaluator(-ts), atol=1e-14)
