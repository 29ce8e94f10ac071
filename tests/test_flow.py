import csv
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from magflow import flow, geometry
from magflow import (
    AbstractProfile,
    ConformalTorus,
    ConstantCurvature,
    CurvatureProfile,
    FourierSeries1D,
    FourierSeries2D,
    InsufficientDataError,
    IntegrationFailure,
    UnitTangent,
    integrate_orbit,
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
                m.magnetic_curvature(tr.state(i)), abs=1e-12
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
            m.flipped(), UnitTangent(end.x, end.y, end.theta + math.pi),
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
        # 5001 rows: more than two blocks of the writer
        tr = integrate_orbit(flat_torus(1.0), UnitTangent(), 50.0)
        tr.kappa_samples[:5] = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
        path = tmp_path / "orbit.csv"
        tr.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,x,y,theta,kappa"
        # the bytes of csv.writer with repr'd floats
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "theta", "kappa"])
            for row in zip(tr.t_samples, tr.xs, tr.ys, tr.thetas, tr.kappa_samples):
                writer.writerow([repr(float(v)) for v in row])
        assert path.read_bytes() == ref.read_bytes()

    def test_work_budget_stops_the_integration(self, monkeypatch):
        monkeypatch.setattr(flow, "ORBIT_NFEV_BUDGET", 200)
        with pytest.raises(IntegrationFailure) as exc:
            integrate_orbit(flat_torus(1.0), UnitTangent(), 200.0)
        assert 0.0 < exc.value.last_time < 200.0
        assert "200 right-hand-side evaluations" in str(exc.value)


def bench_torus():
    # the benchmark's torus (demo 05)
    return ConformalTorus(phi=FourierSeries2D(cos_coeffs={(1, 0): 0.05}),
                          b=FourierSeries2D(const=0.6, sin_coeffs={(0, 1): 0.2}))


def jet_rhs(model):
    # the orbit equations from the array evaluator, as scipy's RHS
    phi, b = model.phi, model.b

    def rhs(t, state):
        x, y, theta = state
        p, px, py, _lap = phi.jet(x, y)
        e = math.exp(-float(p))
        c, s = math.cos(theta), math.sin(theta)
        return [e * c, e * s, float(b(x, y)) + e * (float(py) * c - float(px) * s)]

    return rhs


class TestRK45:
    def test_matches_scipy_rk45(self):
        m, v0 = bench_torus(), UnitTangent(0.31, 0.47, 1.3)
        tr = integrate_orbit(m, v0, 20.0)
        sol = solve_ivp(jet_rhs(m), (0.0, 20.0), [v0.x, v0.y, v0.theta],
                        method="RK45", rtol=flow.DEFAULT_TOL,
                        atol=flow.DEFAULT_TOL, t_eval=tr.t_samples)
        assert sol.success
        for ours, ref, L in ((tr.xs, sol.y[0], m.Lx), (tr.ys, sol.y[1], m.Ly)):
            d = np.abs(ours - ref) % L
            assert np.max(np.minimum(d, L - d)) < 1e-9
        assert np.max(np.abs(tr.thetas - sol.y[2])) < 1e-9
        sc = tr.step_controls
        assert abs(sc["nfev"] - sol.nfev) <= 0.02 * sol.nfev
        # the first-step probe, then six evaluations per attempted step
        assert sc["nfev"] == 2 + 6 * (sc["accepted_steps"] + sc["rejected_steps"])

    def test_step_control_matches_scipy_with_rejections(self):
        # the Arenstorf orbit (Hairer, Norsett and Wanner, sec. II.0) rejects
        # 35 of 167 steps at tol 1e-6, so the rejection path and the no-growth
        # rule after a rejection are exercised; the orbit is periodic, not
        # chaotic, so roundoff stays small
        mu = 0.012277471

        def f(y):
            y1, y2, v1, v2 = y
            d1 = ((y1 + mu) ** 2 + y2 ** 2) ** 1.5
            d2 = ((y1 - 1 + mu) ** 2 + y2 ** 2) ** 1.5
            return (v1, v2,
                    y1 + 2 * v2 - (1 - mu) * (y1 + mu) / d1 - mu * (y1 - 1 + mu) / d2,
                    y2 - 2 * v1 - (1 - mu) * y2 / d1 - mu * y2 / d2)

        y0 = (0.994, 0.0, 0.0, -2.00158510637908252240537862224)
        T = 17.0652165601579625
        ts = np.linspace(0.0, T, 101)
        ys, stats = flow._rk45(f, y0, T, ts, 1e-6)
        sol = solve_ivp(lambda t, y: f(y.tolist()), (0.0, T), y0, method="RK45",
                        rtol=1e-6, atol=1e-6, t_eval=ts)
        assert stats["rejected_steps"] > 20
        assert abs(stats["nfev"] - sol.nfev) <= 0.01 * sol.nfev
        assert np.max(np.abs(ys - sol.y)) < 1e-7

    def test_scalar_rhs_matches_array_jet(self):
        # two modes in phi and in b, on a rectangular cell
        phi = FourierSeries2D(Lx=1.3, Ly=0.7, const=0.2,
                              cos_coeffs={(1, 0): 0.05, (2, -1): 0.03},
                              sin_coeffs={(2, -1): -0.04})
        b = FourierSeries2D(Lx=1.3, Ly=0.7, const=0.6,
                            sin_coeffs={(0, 1): 0.2}, cos_coeffs={(1, -1): 0.1})
        m = ConformalTorus(phi=phi, b=b)
        rhs, ref = m.rhs(), jet_rhs(m)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, (200, 3)) * (1.3, 0.7, 2 * math.pi)
        for x, y, theta in pts.tolist():
            for series, n in ((phi, 3), (b, 1)):
                got = geometry._scalar_jet(series.const, geometry._scalar_modes(series), x, y)
                want = series.jet(x, y)
                assert np.max(np.abs(np.subtract(got[:n], want[:n]))) < 1e-14
            np.testing.assert_allclose(rhs([x, y, theta]), ref(0.0, [x, y, theta]),
                                       rtol=0, atol=1e-14)

    def test_step_underflow_raises(self):
        # y' = y**2 from y(0) = 1 blows up at t = 1: the step falls below
        # 10 ulp(t) just before it
        with pytest.raises(IntegrationFailure) as exc:
            flow._rk45(lambda y: [y[0] * y[0]], (1.0,), 2.0, np.array([0.0, 2.0]),
                       1e-10)
        assert "step size" in str(exc.value)
        assert exc.value.last_time == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_error_stops_at_once(self):
        calls = []

        def f(y):
            calls.append(y)
            return [math.nan]

        with pytest.raises(IntegrationFailure) as exc:
            flow._rk45(f, (1.0,), 2.0, np.array([0.0, 2.0]), 1e-10)
        assert "non-finite" in str(exc.value)
        assert exc.value.last_time == 0.0
        # the first-step probe and one attempted step
        assert len(calls) == 8

    def test_flow_does_not_use_solve_ivp(self):
        assert not hasattr(flow, "solve_ivp")

    @pytest.mark.parametrize("field, series", [
        ("b", FourierSeries2D(const=math.nan)),
        ("b", FourierSeries2D(sin_coeffs={(0, 1): math.inf})),
        ("phi", FourierSeries2D(cos_coeffs={(1, 0): -math.inf})),
        ("phi", FourierSeries2D(Lx=math.inf, Ly=1.0)),
    ])
    def test_non_finite_torus_is_rejected(self, field, series):
        other = FourierSeries2D(Lx=series.Lx)
        kw = {field: series, ("phi" if field == "b" else "b"): other}
        with pytest.raises(ValueError, match="finite"):
            ConformalTorus(**kw)


class TestCurvatureProfiles:
    def test_constant_model_profile(self):
        m = ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=4 * math.pi)
        p = m.profile(UnitTangent(), 1.0, flow.DEFAULT_TOL, False)[0]
        assert float(p.evaluator(3.7)) == pytest.approx(-0.75, abs=1e-15)
        assert p.is_constant

    def test_flat_circle_profile(self):
        p, _ = flat_torus(1.0).profile(UnitTangent(), 5.0, flow.DEFAULT_TOL, False)
        assert float(p.evaluator(2.3)) == pytest.approx(1.0, abs=1e-10)

    def test_abstract_passthrough(self):
        m = AbstractProfile(kappa=lambda t: -1.0 + 0.3 * math.sin(t),
                            k_bound=math.sqrt(1.3))
        p = m.profile(UnitTangent(), 1.0, flow.DEFAULT_TOL, False)[0]
        assert float(p.evaluator(1.5)) == pytest.approx(-1.0 + 0.3 * math.sin(1.5))
        assert p.k_bound >= math.sqrt(1.3) - 1e-12

    def test_spline_reproduces_samples(self):
        rng = rng_for("fidelity")
        m = random_torus(rng)
        p, tr = m.profile(UnitTangent(0.3, 0.6, 2.0), 8.0, flow.DEFAULT_TOL, True)
        vals = p.evaluator(tr.t_samples)
        assert np.max(np.abs(vals - tr.kappa_samples)) < 1e-13

    def test_insufficient_samples_rejected(self):
        rng = rng_for("short")
        m = random_torus(rng)
        with pytest.raises(InsufficientDataError):
            m.profile(UnitTangent(), 0.02, flow.DEFAULT_TOL, False)

    def test_profile_shift_and_flip(self):
        series = FourierSeries1D(const=-1.0, omega=1.0, sin_coeffs={1: 0.3})
        p = CurvatureProfile.from_series(series)
        ts = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(p.shifted(2.0).evaluator(ts),
                                   p.evaluator(ts + 2.0), atol=1e-14)
        np.testing.assert_allclose(p.flipped().evaluator(ts),
                                   p.evaluator(-ts), atol=1e-14)
