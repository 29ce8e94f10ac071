import csv
import math
import pickle

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp
from scipy.interpolate import CubicSpline

from magflow import flow, jacobi
from magflow import (
    AbstractProfile,
    ConformalTorus,
    ConstantCurvature,
    CurvatureProfile,
    FourierSeries1D,
    FourierSeries2D,
    InsufficientDataError,
    IntegrationFailure,
    OrbitTrace,
    SamplingConfig,
    UnitTangent,
    classify,
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
        tr = integrate_orbit(m, UnitTangent(0, 0, 0.3), 3.0, flow.DEFAULT_TOL)
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
        tr = integrate_orbit(m, UnitTangent(0.4, 0.1, 1.2), 5.0, flow.DEFAULT_TOL)
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
            integrate_orbit(flat_torus(), UnitTangent(), -1.0, flow.DEFAULT_TOL)

    @pytest.mark.parametrize("name, horizon, tol", [
        ("horizon", 0.0, flow.DEFAULT_TOL),
        ("horizon", math.nan, flow.DEFAULT_TOL),
        ("horizon", math.inf, flow.DEFAULT_TOL),
        ("tol", 1.0, 0.0),
        ("tol", 1.0, -1e-10),
        ("tol", 1.0, math.nan),
        ("tol", 1.0, math.inf),
    ])
    def test_horizon_and_tol_must_be_positive_and_finite(self, name, horizon, tol):
        # unchecked, each ends in a raw error from the sample grid or the
        # error norm, or (tol < 0) runs with |tol|
        match = "%s must be positive and finite" % name
        with pytest.raises(ValueError, match=match):
            integrate_orbit(flat_torus(), UnitTangent(), horizon, tol)
        with pytest.raises(ValueError, match=match):
            classify(flat_torus(), SamplingConfig(ensemble_count=1, horizon=horizon,
                                                  integration_tol=tol))

    # 2048 and 2049 rows sit on the edge of the writer's 2048-row blocks;
    # 5001 rows take more than two blocks
    @pytest.mark.parametrize("horizon, rows", [(20.47, 2048), (20.48, 2049),
                                               (50.0, 5001)])
    def test_csv_export(self, tmp_path, horizon, rows):
        tr = integrate_orbit(flat_torus(1.0), UnitTangent(), horizon, flow.DEFAULT_TOL)
        assert len(tr.t_samples) == rows
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
            integrate_orbit(flat_torus(1.0), UnitTangent(), 200.0, flow.DEFAULT_TOL)
        assert 0.0 < exc.value.last_time < 200.0
        assert "200 right-hand-side evaluations" in str(exc.value)


def _blow_up():
    # x' = x**2 from x(0) = 1 blows up at t = 1
    flow._rk45(lambda x, y, theta: (x * x, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0,
               np.array([0.0, 2.0]), 1e-10)


def _stiff_launch(d):
    # kappa = 1e4 needs steps near 0.01, and floats near 2**50 are 0.25
    # (above) and 0.125 (below) apart
    t0 = 2.0 ** 50
    jacobi._launch(CurvatureProfile.constant(1e4).evaluator, [1.0, 0.0, 0.0, 1.0],
                   (t0, t0 + 100.0 * d))


def _nan_orbit():
    flow._rk45(lambda x, y, theta: (math.nan, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0,
               np.array([0.0, 2.0]), 1e-10)


def _nan_launch():
    jacobi._launch(lambda t: np.full(np.shape(t), np.nan), [1.0, 0.0, 0.0, 1.0],
                   (3.0, -2.0))


def _long_orbit(monkeypatch):
    monkeypatch.setattr(flow, "ORBIT_NFEV_BUDGET", 200)
    integrate_orbit(flat_torus(1.0), UnitTangent(), 200.0, flow.DEFAULT_TOL)


def _long_launch(monkeypatch):
    monkeypatch.setattr(jacobi, "JACOBI_NFEV_BUDGET", 300)
    jacobi._launch(CurvatureProfile.constant(-1.0).evaluator, [1.0, 0.0, 0.0, 1.0],
                   (0.0, 50.0))


UNDERFLOW = "failed: the step size fell below the spacing of floats"
NON_FINITE = "failed: non-finite error estimate"


class TestFailureRules:
    """Both Dormand-Prince loops fail through the one controller
    (flow._march): the same three rules, in the same words."""

    @pytest.mark.parametrize("what, failing, rule, first, last", [
        ("orbit", lambda mp: _blow_up(), UNDERFLOW, 1.0 - 1e-9, 1.0),
        ("jacobi", lambda mp: _stiff_launch(1.0), UNDERFLOW, 2.0 ** 50, 2.0 ** 50),
        ("jacobi", lambda mp: _stiff_launch(-1.0), UNDERFLOW, 2.0 ** 50, 2.0 ** 50),
        ("orbit", lambda mp: _nan_orbit(), NON_FINITE, 0.0, 0.0),
        ("jacobi", lambda mp: _nan_launch(), NON_FINITE, 3.0, 3.0),
        ("orbit", _long_orbit, "exceeded 200 right-hand-side evaluations", 1e-9, 200.0),
        ("jacobi", _long_launch, "exceeded 300 right-hand-side evaluations", 1e-9, 50.0),
    ], ids=["orbit-underflow", "jacobi-underflow-forward", "jacobi-underflow-backward",
            "orbit-non-finite", "jacobi-non-finite", "orbit-budget", "jacobi-budget"])
    def test_wording_and_last_time(self, monkeypatch, what, failing, rule, first, last):
        with pytest.raises(IntegrationFailure) as exc:
            failing(monkeypatch)
        t = exc.value.last_time
        assert first <= t <= last
        assert str(exc.value) == "%s integration %s at t = %.6g" % (what, rule, t)


def bench_torus():
    # the benchmark's torus (demo 05)
    return ConformalTorus(phi=FourierSeries2D(cos_coeffs={(1, 0): 0.05}),
                          b=FourierSeries2D(const=0.6, sin_coeffs={(0, 1): 0.2}))


def rect_torus():
    # two modes in phi and in b, on a rectangular cell
    phi = FourierSeries2D(Lx=1.3, Ly=0.7, const=0.2,
                          cos_coeffs={(1, 0): 0.05, (2, -1): 0.03},
                          sin_coeffs={(2, -1): -0.04})
    b = FourierSeries2D(Lx=1.3, Ly=0.7, const=0.6,
                        sin_coeffs={(0, 1): 0.2}, cos_coeffs={(1, -1): 0.1})
    return ConformalTorus(phi=phi, b=b)


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
        tr = integrate_orbit(m, v0, 20.0, flow.DEFAULT_TOL)
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
        # Euler's equations of a free rigid body with moments of inertia
        # 0.5, 2 and 3 (the EULR problem of Hairer, Norsett and Wanner,
        # sec. II.10, without its forcing) reject 33 steps at tol 1e-6, so the
        # rejection path and the no-growth rule after a rejection are
        # exercised; the motion is periodic, not chaotic, so roundoff stays
        # small
        def f(y1, y2, y3):
            return (-2.0 * y2 * y3, 1.25 * y1 * y3, -0.5 * y1 * y2)

        y0, T = (0.0, 1.0, 1.0), 20.0
        ts = np.linspace(0.0, T, 101)
        ys, stats = flow._rk45(f, y0, T, ts, 1e-6)
        sol = solve_ivp(lambda t, y: f(*y), (0.0, T), y0, method="RK45",
                        rtol=1e-6, atol=1e-6, t_eval=ts)
        assert stats["rejected_steps"] > 20
        assert abs(stats["nfev"] - sol.nfev) <= 0.01 * sol.nfev
        assert np.max(np.abs(ys - sol.y)) < 1e-7

    def test_scalar_rhs_matches_array_jet(self):
        m = rect_torus()
        rhs, ref = m.rhs(), jet_rhs(m)
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, (200, 3)) * (1.3, 0.7, 2 * math.pi)
        for x, y, theta in pts.tolist():
            np.testing.assert_allclose(rhs(x, y, theta), ref(0.0, [x, y, theta]),
                                       rtol=0, atol=1e-14)

    def test_step_underflow_raises(self):
        # x' = x**2 from x(0) = 1 blows up at t = 1: the step falls below
        # 10 ulp(t) just before it
        with pytest.raises(IntegrationFailure) as exc:
            _blow_up()
        assert "step size" in str(exc.value)
        assert 1.0 - 1e-9 <= exc.value.last_time <= 1.0

    def test_non_finite_error_stops_at_once(self):
        calls = []

        def f(x, y, theta):
            calls.append((x, y, theta))
            return (math.nan, 0.0, 0.0)

        with pytest.raises(IntegrationFailure) as exc:
            flow._rk45(f, (1.0, 0.0, 0.0), 2.0, np.array([0.0, 2.0]), 1e-10)
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


# scipy's RK45 tableau, an independent copy of flow's
_A = RK45.A.tolist()
A21 = _A[1][0]
A31, A32 = _A[2][:2]
A41, A42, A43 = _A[3][:3]
A51, A52, A53, A54 = _A[4][:4]
A61, A62, A63, A64, A65 = _A[5]
B1, _, B3, B4, B5, B6 = RK45.B.tolist()
E1, _, E3, E4, E5, E6, E7 = RK45.E.tolist()
P = RK45.P[[0, 2, 3, 4, 5, 6]]


def list_rk45(f, y0, t_end, t_eval, tol):
    """The orbit loop in its generic form: every stage sum, the update and
    the error estimate a list comprehension over the components, driven by
    flow._first_step and flow._march and read out from the same dense
    output."""
    def g(y):
        return f(*y)

    y = [float(v) for v in y0]
    k1 = g(y)
    h_abs = flow._first_step(lambda t, v: g(v), 0.0, y, k1, t_end, 4, tol)

    def attempt(t, y, k1, h):
        k2 = g([v + (A21 * a) * h for v, a in zip(y, k1)])
        k3 = g([v + (A31 * a + A32 * b) * h for v, a, b in zip(y, k1, k2)])
        k4 = g([v + (A41 * a + A42 * b + A43 * c) * h
                for v, a, b, c in zip(y, k1, k2, k3)])
        k5 = g([v + (A51 * a + A52 * b + A53 * c + A54 * d) * h
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
        k6 = g([v + (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e) * h
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
        y_new = [v + h * (B1 * a + B3 * c + B4 * d + B5 * e + B6 * q)
                 for v, a, c, d, e, q in zip(y, k1, k3, k4, k5, k6)]
        k7 = g(y_new)
        err = flow._rms([(E1 * a + E3 * c + E4 * d + E5 * e + E6 * q + E7 * k)
                         * h / (tol + max(abs(v), abs(w)) * tol)
                         for v, w, a, c, d, e, q, k
                         in zip(y, y_new, k1, k3, k4, k5, k6, k7)])
        return y_new, k7, err, (t, h, y, (k1, k3, k4, k5, k6, k7))

    ends, steps = [], []

    def keep(t_new, y_new, step):
        ends.append(t_new)
        steps.append(step)

    nfev, rejected = flow._march(attempt, keep, 0.0, t_end, y, k1, h_abs, 2, 6,
                                 flow.ORBIT_NFEV_BUDGET, 4, "orbit")
    idx = np.searchsorted(ends, t_eval, side="left")
    t0, hs, y_old, ks = (np.array(c) for c in zip(*steps))
    q = np.einsum("ksj,sr->rjk", ks, P)
    hs = hs[idx]
    p = np.cumprod(np.tile((t_eval - t0[idx]) / hs, (4, 1)), axis=0)
    ys = hs * sum(q[r][:, idx] * p[r] for r in range(4)) + y_old[idx].T
    return ys, {"nfev": nfev, "accepted_steps": len(steps),
                "rejected_steps": rejected}


class TestUnrolledStages:
    """flow._rk45 writes the stages out per component of (x, y, theta) in
    the order and association of the generic form, so its orbits are
    bitwise those of list_rk45."""

    @pytest.mark.parametrize("model, starts, horizon, tol", [
        (bench_torus(), bench_torus().ensemble(2, 0), 50.0, flow.DEFAULT_TOL),
        # the benchmark's horizon: past t ~ 100 the chaotic orbit amplifies
        # any roundoff to O(1), so this is the most sensitive case
        (bench_torus(), bench_torus().ensemble(2, 11), 200.0, flow.DEFAULT_TOL),
        (rect_torus(), [UnitTangent(0.4, 0.1, 1.2)], 50.0, flow.DEFAULT_TOL),
        # criterion 13's flat chart
        (flat_torus(1.0), [UnitTangent(0.1, 0.8, 0.3)], 20 * math.pi, 1e-11),
    ], ids=["bench", "bench-200", "rectangular", "flat"])
    def test_orbits_match_the_list_form_bitwise(self, monkeypatch, model, starts,
                                                horizon, tol):
        for v0 in starts:
            got = integrate_orbit(model, v0, horizon, tol)
            with monkeypatch.context() as mp:
                mp.setattr(flow, "_rk45", list_rk45)
                want = integrate_orbit(model, v0, horizon, tol)
            for name in ("t_samples", "xs", "ys", "thetas", "kappa_samples"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.step_controls == want.step_controls


class TestSpline:
    """flow._Spline against scipy's not-a-knot CubicSpline, which it
    replaced: the knot slopes agree to roundoff, and the pieces are read in
    PPoly's order."""

    @staticmethod
    def _orbit(jitter):
        tr = integrate_orbit(bench_torus(), UnitTangent(0.31, 0.47, 1.3), 20.0,
                             flow.DEFAULT_TOL)
        x = tr.t_samples.copy()
        x[1:-1] += flow.SAMPLE_DT * np.random.default_rng(5).uniform(
            -jitter, jitter, len(x) - 2)
        return x, tr.kappa_samples

    @staticmethod
    def _assert_close(ours, ref, ts, y):
        assert np.max(np.abs(ours(ts) - ref(ts))) <= 4e-15 * np.max(np.abs(y))

    @pytest.mark.parametrize("jitter", [0.0, 0.3], ids=["uniform", "jittered"])
    def test_matches_scipy(self, jitter):
        x, y = self._orbit(jitter)
        ours, ref = flow._Spline(x, y), CubicSpline(x, y)
        # a knot starts its piece, which reads the sample itself; the last
        # knot ends the last piece, read like any time
        assert ours(x[:-1]).tobytes() == ref(x[:-1]).tobytes() == y[:-1].tobytes()
        rng = np.random.default_rng(6)
        for ts in ((x[1:] + x[:-1]) / 2, rng.uniform(x[0], x[-1], 10_000), x[-1:],
                   # past the window ends, where both extrapolate the end pieces
                   np.linspace(x[0] - 5 * flow.SAMPLE_DT, x[0], 50, endpoint=False),
                   np.linspace(x[-1], x[-1] + 5 * flow.SAMPLE_DT, 50)):
            self._assert_close(ours, ref, ts, y)

    @pytest.mark.parametrize("n", range(4, 12))
    def test_small_systems_match_scipy(self, n):
        # cyclic reduction halves systems of every parity down to one row
        x = np.linspace(0.0, 1.0, n)
        x[1:-1] += np.random.default_rng(n).uniform(-0.3, 0.3, n - 2) / (n - 1)
        y = np.sin(4 * x)
        ts = np.linspace(-0.1, 1.1, 241)
        self._assert_close(flow._Spline(x, y), CubicSpline(x, y), ts, y)

    def test_profile_reads_scalars_and_pickles(self):
        tr = integrate_orbit(bench_torus(), UnitTangent(0.31, 0.47, 1.3), 5.0,
                             flow.DEFAULT_TOL)
        p = CurvatureProfile.from_orbit(tr)
        v = p(3.7)
        assert isinstance(v, np.ndarray) and v.shape == ()
        assert abs(v - CubicSpline(tr.t_samples, tr.kappa_samples)(3.7)) < 1e-14
        # a profile crosses to a worker process as a pickle
        q = pickle.loads(pickle.dumps(p))
        ts = np.linspace(0.0, 5.0, 333)
        assert q(ts).tobytes() == p(ts).tobytes()
        assert (q.k_bound, q.t_min, q.t_max) == (p.k_bound, p.t_min, p.t_max)


class TestCurvatureProfiles:
    def test_constant_model_profile(self):
        m = ConstantCurvature(K=-1.0, b=0.5, chi=-2, area=4 * math.pi)
        p = m.profile(UnitTangent(), 1.0, flow.DEFAULT_TOL, False)[0]
        assert float(p.evaluator(3.7)) == pytest.approx(-0.75, abs=1e-15)
        assert p.const_value is not None

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
        for n in (1, 2, 3):
            t = np.linspace(0.0, 0.01 * (n - 1), n)
            with pytest.raises(InsufficientDataError):
                CurvatureProfile.from_orbit(OrbitTrace(t, t, t, t, np.cos(t)))

    def test_series_k_bound_is_certified(self):
        # the minimum of a 4096-point grid over one period sat 1.9e-8 above
        # the minimum the 2048-point check on [0, 100] finds, past K_MARGIN
        series = FourierSeries1D(const=-0.8, omega=0.7, cos_coeffs={1: 0.2},
                                 sin_coeffs={2: 0.1})
        k = CurvatureProfile.from_series(series).k_bound
        AbstractProfile(kappa=series, k_bound=k).validate_window(0.0, 100.0)
        assert k**2 >= -np.min(series(np.linspace(0.0, 100.0, 10_001)))

    def test_k_bound_covers_the_minimum_past_the_margin(self):
        # past |kmin| ~ 4e6 the margin drops out of -kmin + K_MARGIN: k steps
        # up to the first float with k * k >= -kmin, and a k that covers the
        # minimum already is the square root itself
        rng = np.random.default_rng(7)
        stepped = 0
        for kmin in [-0.0, -1.0, -1.1, -4.2e6, -8.06384158e8 - 0.3,
                     *(-np.exp(rng.uniform(-5.0, 45.0, 2000))).tolist()]:
            k = flow._k_bound(kmin)
            root = math.sqrt(-kmin + flow.K_MARGIN)
            assert k * k >= -kmin
            if root * root >= -kmin:
                assert k == root
            else:
                stepped += 1
                assert math.nextafter(k, 0.0) * math.nextafter(k, 0.0) < -kmin
        assert stepped > 0

    def test_profile_shift_and_flip(self):
        series = FourierSeries1D(const=-1.0, omega=1.0, sin_coeffs={1: 0.3})
        p = CurvatureProfile.from_series(series)
        ts = np.linspace(-5, 5, 101)
        np.testing.assert_allclose(p.shifted(2.0).evaluator(ts),
                                   p.evaluator(ts + 2.0), atol=1e-14)
        np.testing.assert_allclose(p.flipped().evaluator(ts),
                                   p.evaluator(-ts), atol=1e-14)
