import csv
import math
import pickle
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as _dop853
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
    flow._integrate(lambda x, y, theta: (x * x, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0, 1e-10)


def _stiff_launch(d):
    # kappa = 1e4 needs steps near 0.01, and floats near 2**50 are 0.25
    # (above) and 0.125 (below) apart
    t0 = 2.0 ** 50
    jacobi._launch(CurvatureProfile.constant(1e4).evaluator, [1.0, 0.0, 0.0, 1.0],
                   (t0, t0 + 100.0 * d))


def _nan_orbit():
    flow._integrate(lambda x, y, theta: (math.nan, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0,
                    1e-10)


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
        ("orbit", lambda mp: _blow_up(), UNDERFLOW, 1.0 - 1e-9, 1.0 + 1e-9),
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
    """The orbit loop, flow._integrate, against scipy's DOP853 solver; the
    class keeps the name of the RK45 loop it replaced."""

    def test_matches_scipy_dop853(self):
        m, v0 = bench_torus(), UnitTangent(0.31, 0.47, 1.3)
        tr = integrate_orbit(m, v0, 20.0, flow.DEFAULT_TOL)
        sol = solve_ivp(jet_rhs(m), (0.0, 20.0), [v0.x, v0.y, v0.theta],
                        method="DOP853", rtol=flow.DEFAULT_TOL,
                        atol=flow.DEFAULT_TOL, t_eval=tr.t_samples)
        assert sol.success
        for ours, ref, L in ((tr.xs, sol.y[0], m.Lx), (tr.ys, sol.y[1], m.Ly)):
            d = np.abs(ours - ref) % L
            assert np.max(np.minimum(d, L - d)) < 1e-9
        assert np.max(np.abs(tr.thetas - sol.y[2])) < 1e-9
        sc = tr.step_controls
        assert abs(sc["nfev"] - sol.nfev) <= 0.02 * sol.nfev
        # the first-step probe, 12 evaluations per attempted step and the
        # three dense-output stages of each accepted one
        assert sc["nfev"] == 2 + 12 * (sc["accepted_steps"] + sc["rejected_steps"]) + (
            3 * sc["accepted_steps"])

    def test_step_control_matches_scipy_with_rejections(self):
        # Euler's equations of a free rigid body with moments of inertia
        # 0.5, 2 and 3 (the EULR problem of Hairer, Norsett and Wanner,
        # sec. II.10, without its forcing) reject 8 steps at tol 1e-6, so the
        # rejection path and the no-growth rule after a rejection are
        # exercised; the motion is periodic, not chaotic, so roundoff stays
        # small
        def f(y1, y2, y3):
            return (-2.0 * y2 * y3, 1.25 * y1 * y3, -0.5 * y1 * y2)

        y0, T = (0.0, 1.0, 1.0), 20.0
        ts = np.linspace(0.0, T, 101)
        run = flow._integrate(f, y0, T, 1e-6)
        sol = solve_ivp(lambda t, y: f(*y), (0.0, T), y0, method="DOP853",
                        rtol=1e-6, atol=1e-6, t_eval=ts)
        assert run.rejected > 5
        assert abs(run.nfev - sol.nfev) <= 0.01 * sol.nfev
        assert np.max(np.abs(run.sol(ts) - sol.y)) < 1e-10

    def test_nfev_counts_every_call_within_the_budget(self, monkeypatch):
        # the dense-output stages are evaluations too: nfev is the number of
        # calls, and the budget bounds them all
        calls = []
        rhs = bench_torus().rhs()

        def counted(x, y, theta):
            calls.append(x)
            return rhs(x, y, theta)

        run = flow._integrate(counted, (0.31, 0.47, 1.3), 20.0, flow.DEFAULT_TOL)
        assert run.nfev == len(calls) == 2576
        for budget in (2575, 2000, 1000, 17, 16):
            calls.clear()
            monkeypatch.setattr(flow, "ORBIT_NFEV_BUDGET", budget)
            with pytest.raises(IntegrationFailure, match="exceeded %d" % budget):
                flow._integrate(counted, (0.31, 0.47, 1.3), 20.0, flow.DEFAULT_TOL)
            assert budget - 15 < len(calls) <= budget

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
        # 10 ulp(t) at the blow-up time as the loop resolves it, to within
        # its tolerance (scipy's DOP853 stops at 1 + 2.2e-11 too)
        with pytest.raises(IntegrationFailure) as exc:
            _blow_up()
        assert "step size" in str(exc.value)
        assert abs(exc.value.last_time - 1.0) <= 1e-9

    def test_non_finite_error_stops_at_once(self):
        calls = []

        def f(x, y, theta):
            calls.append((x, y, theta))
            return (math.nan, 0.0, 0.0)

        with pytest.raises(IntegrationFailure) as exc:
            flow._integrate(f, (1.0, 0.0, 0.0), 2.0, 1e-10)
        assert "non-finite" in str(exc.value)
        assert exc.value.last_time == 0.0
        # the first-step probe and one attempted step
        assert len(calls) == 2 + 12

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


# The orbit loop in its list form, the one flow._integrate writes out: every
# stage sum, the update and the error terms a dot product over a full row
# of scipy's DOP853 tableau (an independent copy of magflow's _dop853), zero
# weights included, added left to right from 0.0 on every Python version.
_ROWS = [row[:s] for s, row in enumerate(_dop853.A.tolist())]
_E3, _E5 = _dop853.E3.tolist(), _dop853.E5.tolist()


def dot(w, c):
    return reduce(add, map(mul, w, c), 0.0)


def list_integrate(f, y0, t_end, tol):
    """flow._integrate with each stage a list comprehension over the
    components and the full rows of A, driven by flow._first_step and
    flow._march, its dense output formed by flow._Run.dense."""
    def g(y):
        return list(f(*y))

    y = [float(v) for v in y0]
    k0 = g(y)
    h_abs = flow._first_step(lambda t, v: g(v), 0.0, y, k0, t_end, 7, tol)

    def attempt(t, y, k0, h):
        ks = [[k] for k in k0]  # the stage slopes of each component
        for row in _ROWS[1:12]:
            for c, k in zip(ks, g([v + dot(row, c) * h for v, c in zip(y, ks)])):
                c.append(k)
        y_new = [v + h * dot(_ROWS[12], c) for v, c in zip(y, ks)]
        f_new = g(y_new)
        e5 = e3 = 0.0
        for v, w, c, k in zip(y, y_new, ks, f_new):
            c.append(k)
            sc = tol + max(abs(v), abs(w)) * tol
            p, q = dot(_E5, c) / sc, dot(_E3, c) / sc
            e5, e3 = e5 + p * p, e3 + q * q
        err = (0.0 if e5 == 0 and e3 == 0
               else abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * 3))
        return y_new, f_new, err, (h, y, ks)

    ts, ys, steps = [0.0], [y], []

    def keep(t_new, y_new, step):
        h, y, ks = step
        for row in _ROWS[13:]:
            for c, k in zip(ks, g([v + dot(row, c) * h for v, c in zip(y, ks)])):
                c.append(k)
        ts.append(t_new)
        ys.append(y_new)
        steps.append(ks)

    nfev, rejected = flow._march(attempt, keep, 0.0, t_end, y, k0, h_abs, 2, 12, 3,
                                 flow.ORBIT_NFEV_BUDGET, 7, "orbit")
    k = np.array(steps).transpose(2, 1, 0)  # (16 stages, 3 components, steps)
    return flow._Run.dense(np.array(ts), np.array(ys).T, k, nfev, rejected)


class TestUnrolledStages:
    """flow._integrate writes the stages out per component of (x, y, theta)
    over the nonzero weights, in the order and association of the generic
    form, so its orbits are bitwise those of list_integrate."""

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
                mp.setattr(flow, "_integrate", list_integrate)
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
