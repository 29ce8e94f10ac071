"""Acceptance gate: every release-blocking check, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from magflow import (
    AbstractProfile,
    ConstantCurvature,
    CurvatureProfile,
    FourierSeries1D,
    FourierSeries2D,
    ConformalTorus,
    JacobiState,
    NumericalInconsistencyError,
    UnitTangent,
    classify,
    contraction_fit,
    first_zero,
    green_both,
    green_slope,
    integrate_jacobi,
    integrate_orbit,
    integrate_riccati,
    invariance_residual,
    solve_boundary,
)
from magflow import green
from magflow.cli import run as cli_run, sweep as cli_sweep
from families import (
    hyperbolic_profile,
    negative_r_slope_limit,
    oscillatory_profile,
    rng_for,
)

AREA = 4 * math.pi


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %02d [%s] %s %s" % (num, status, name, detail))
    assert ok, "criterion %d (%s) failed: %s" % (num, name, detail)


def check_criterion_01():
    worst = 0.0
    for K in (-4.0, -1.0, -0.25):
        root = math.sqrt(-K)
        est = green_both(CurvatureProfile.constant(K))
        worst = max(worst, abs(est.u_plus0 + root), abs(est.u_minus0 - root))
    return worst < 1e-6, "max deviation %.3g" % worst


def test_criterion_01_green_slope_oracle():
    report(1, "green-slope oracle for constant profiles", *check_criterion_01())


def test_criterion_02_conjugate_time_oracle():
    errs = [
        abs(first_zero(CurvatureProfile.constant(1.0), 10.0) - math.pi),
        abs(first_zero(CurvatureProfile.constant(4.0), 10.0) - math.pi / 2),
    ]
    none_ok = first_zero(CurvatureProfile.constant(-1.0), 50.0) is None
    report(2, "first-conjugate-time oracle", max(errs) < 1e-6 and none_ok,
           "max err %.3g, hyperbolic none=%s" % (max(errs), none_ok))


def test_criterion_03_horocycle_boundary_sweep(tmp_path):
    grid = [round(0.2 + 0.05 * k, 10) for k in range(25)]
    cfg = {
        "model": {"kind": "constant", "K": -1.0, "b": 1.0, "chi": -2, "area": AREA},
        "ensemble": {"count": 4, "seed": 0, "horizon": 60.0},
        "sweep": {"parameter": "model.b", "grid": grid},
        "output_dir": str(tmp_path / "sweep"),
    }
    cli_sweep(cfg)
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    verdicts, gaps = {}, {}
    for row in rows:
        parts = row.split(",")
        lam = float(parts[0])
        verdicts[lam] = parts[1]
        gaps[lam] = float(parts[2]) if parts[2] else None
    low_ok = all(verdicts[l] == "NumericallyAnosov" for l in grid if l <= 0.95)
    high_ok = all(verdicts[l] == "NotAnosov" for l in grid if l >= 1.0)
    gap_err = abs(gaps[0.95] - 2 * math.sqrt(1 - 0.95**2))
    below = [gaps[l] for l in grid if l <= 0.95]
    monotone_ok = all(b <= a + 1e-9 for a, b in zip(below, below[1:]))
    report(3, "constant-hyperbolic intensity sweep",
           low_ok and high_ok and monotone_ok and gap_err < 1e-4,
           "gap error at 0.95: %.3g" % gap_err)


def test_criterion_04_integral_inequality():
    ok = True
    for b in (0.25, 0.5, 0.95, 1.0, 1.05, 1.5):
        r = ConstantCurvature(K=-1.0, b=b, chi=-2, area=AREA).inequality()
        ok &= r.lhs == b * b * AREA and r.rhs == AREA and r.passes == (b * b < 1.0)
    r_torus = ConformalTorus(phi=FourierSeries2D(),
                             b=FourierSeries2D(const=0.5)).inequality()
    ok &= not r_torus.passes
    report(4, "averaged-intensity inequality", ok)


def test_criterion_05_wronskian_conservation():
    rng = rng_for("acceptance-wronskian")
    worst = 0.0
    for _ in range(20):
        p = oscillatory_profile(rng)
        s1 = JacobiState(2 * rng.random() - 1, 2 * rng.random() - 1)
        s2 = JacobiState(2 * rng.random() - 1, 2 * rng.random() - 1)
        tr1 = integrate_jacobi(p, s1, (0.0, 50.0))
        tr2 = integrate_jacobi(p, s2, (0.0, 50.0))
        ts = np.linspace(0.0, 50.0, 2001)
        W = tr1.derivs(ts) * tr2.values(ts) - tr2.derivs(ts) * tr1.values(ts)
        worst = max(worst, float(np.max(np.abs(W - W[0]))))
    report(5, "wronskian conservation over [0, 50]", worst < 1e-8,
           "max drift %.3g" % worst)


def _criterion6_profiles():
    rng = rng_for("acceptance-v")
    profiles = [CurvatureProfile.constant(0.0), CurvatureProfile.constant(-1.0)]
    profiles += [hyperbolic_profile(rng) for _ in range(10)]
    return profiles


def test_criterion_06_boundary_solution_cross_check():
    worst = 0.0
    for p in _criterion6_profiles():
        for r in (5.0, 10.0, 20.0):
            worst = max(worst, solve_boundary(p, r, cross_check=True).cross_residual)
    report(6, "reduction-of-order vs shooting cross-check", worst < 1e-8,
           "max residual %.3g" % worst)


def test_criterion_07_slope_monotonicity_and_barrier():
    # strict increase is only visible until the analytic increments
    # (which decay like exp(-2kr)) drop below double-precision roundoff;
    # past that point equality within 1e-13 is accepted
    ok = True
    for p in _criterion6_profiles():
        slopes = [solve_boundary(p, r, cross_check=False).slope0
                  for r in (5.0, 10.0, 20.0, 40.0)]
        diffs = [b - a for a, b in zip(slopes, slopes[1:])]
        ok &= diffs[0] > 0.0
        ok &= all(d > -1e-13 for d in diffs)
        ok &= all(d > 0.0 for d in diffs if abs(d) > 1e-13)
        barrier = solve_boundary(p, -1.0, cross_check=False).slope0
        ok &= all(s < barrier for s in slopes)
    report(7, "slope monotonicity in r with negative-time barrier", ok)


def check_criterion_08():
    rng = rng_for("acceptance-envelope")
    ok = True
    worst = 0.0
    for _ in range(20):
        p = hyperbolic_profile(rng)
        k = p.k_bound
        guard = (math.log(2 * k / 1e-6) + 2.0) / (2 * k)
        T = 50.0
        for u0 in (-3 * k, -0.9 * k, 0.0, 0.5 * k, 2 * k, 10.0):
            tr = integrate_riccati(p, u0, (0.0, T))
            ts, us = tr.t_samples, tr.u_samples
            inside = ts > 1e-3
            if tr.blowup_time is None:
                over = np.max(us[inside] - k / np.tanh(k * ts[inside]))
                under = np.max(-k - us[inside & (ts <= T - guard)])
                ok &= over <= 1e-6 and under <= 1e-6
                worst = max(worst, over, under)
            else:
                pre = inside & (ts < tr.blowup_time - 1e-3)
                over = np.max(us[pre] - k / np.tanh(k * ts[pre]))
                ok &= over <= 1e-6
                worst = max(worst, over)
        est = green_both(p)
        for u0, span in ((est.u_plus0 + 1e-9, (0.0, 50.0)),
                         (est.u_plus0, (0.0, -50.0)),
                         (est.u_minus0, (0.0, 50.0)),
                         (est.u_minus0 - 1e-9, (0.0, -50.0))):
            tr = integrate_riccati(p, u0, span)
            band = float(np.max(np.abs(tr.u_samples))) - k
            ok &= tr.blowup_time is None and band <= 1e-6
            worst = max(worst, band)
    return ok, "worst excess %.3g" % worst


def test_criterion_08_riccati_envelopes():
    report(8, "riccati comparison envelopes", *check_criterion_08())


def check_criterion_09():
    p = CurvatureProfile.from_series(FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}))
    residuals = [invariance_residual(p, t) for t in (1.0, math.pi, 10.0)]
    return max(residuals) < 1e-6, "residuals %s" % ["%.3g" % r for r in residuals]


def test_criterion_09_invariance_of_stable_slope():
    report(9, "flow invariance of the Green slopes", *check_criterion_09())


def check_criterion_10():
    rng = rng_for("acceptance-flip")
    worst = 0.0
    for _ in range(10):
        p = hyperbolic_profile(rng)
        stable_of_flip = green_slope(p.flipped(), "+").u_plus0
        unstable = green_slope(p, "-").u_minus0
        unstable_direct = negative_r_slope_limit(p)
        worst = max(worst, abs(stable_of_flip + unstable_direct),
                    abs(unstable - unstable_direct))
    return worst < 1e-8, "max deviation %.3g" % worst


def test_criterion_10_flip_duality():
    report(10, "time-reflection duality of the slopes", *check_criterion_10())


def test_criterion_11_contraction_fit():
    p = CurvatureProfile.constant(-1.0)
    fit = contraction_fit(p, green_slope(p, "+"))
    c_ok = abs(fit.c - 1.0) < 0.05
    norm_ok = abs(fit.norm_end - math.sqrt(2) * math.exp(-10.0)) \
        < 0.05 * math.sqrt(2) * math.exp(-10.0)
    report(11, "stable contraction rate and norm decay", c_ok and norm_ok,
           "c=%.6f norm(10)=%.4g" % (fit.c, fit.norm_end))


def test_criterion_12_nonpositive_curvature_scenarios():
    half_wave = AbstractProfile(
        kappa=lambda t: -max(0.0, math.sin(t)) ** 2, k_bound=1.0
    )
    rep = classify(half_wave)
    o = rep.orbits[0]
    hw_ok = (o.gap_converged and o.gap > 1e-3
             and rep.verdict == "NumericallyAnosov")

    flat = AbstractProfile(kappa=lambda t: 0.0, k_bound=0.5)
    rep0 = classify(flat)
    o0 = rep0.orbits[0]
    flat_ok = (o0.gap is not None and o0.gap < 1e-8
               and o0.witness_sup is not None
               and abs(o0.witness_sup - 1.0) < 1e-6
               and rep0.verdict == "NotAnosov")
    report(12, "half-wave vs flat curvature scenarios", hw_ok and flat_ok,
           "half-wave gap %.4g, flat gap %.3g" % (o.gap, o0.gap))


def test_criterion_13_flat_chart_orbit_oracle():
    torus = ConformalTorus(phi=FourierSeries2D(), b=FourierSeries2D(const=1.0))
    th0, x0, y0 = 0.3, 0.1, 0.8
    horizon = 10 * 2 * math.pi
    tr = integrate_orbit(torus, UnitTangent(x0, y0, th0), horizon, tol=1e-11, stop=horizon)
    ts = tr.t_samples
    theta_err = float(np.max(np.abs(tr.thetas - (th0 + ts))))
    dx = np.abs(tr.xs - (x0 + np.sin(th0 + ts) - math.sin(th0))) % 1.0
    dy = np.abs(tr.ys - (y0 - np.cos(th0 + ts) + math.cos(th0))) % 1.0
    pos_err = float(max(np.max(np.minimum(dx, 1 - dx)), np.max(np.minimum(dy, 1 - dy))))
    end = tr.state(len(ts) - 1)
    period_err = max(
        min(abs(end.x - x0), 1 - abs(end.x - x0)),
        min(abs(end.y - y0), 1 - abs(end.y - y0)),
        abs((end.theta - th0) % (2 * math.pi) - 0.0) % (2 * math.pi - 1e-9),
    )
    ok = theta_err < 1e-8 and pos_err < 1e-8 and period_err < 1e-8
    report(13, "flat-chart circular orbit oracle", ok,
           "theta err %.3g, position err %.3g, period err %.3g"
           % (theta_err, pos_err, period_err))


def test_criterion_14_determinism(tmp_path):
    cfg = {
        "model": {"kind": "torus", "phi": {"cos": {"1,0": 0.05}},
                  "b": {"const": 0.4, "sin": {"0,1": 0.2}}},
        "ensemble": {"count": 3, "seed": 7, "horizon": 25.0},
        "output_dir": str(tmp_path / "out"),
    }
    cli_run(json.loads(json.dumps(cfg)))
    first = (tmp_path / "out" / "report.json").read_text()
    cli_run(json.loads(json.dumps(cfg)))
    second = (tmp_path / "out" / "report.json").read_text()

    def strip(s):
        return [ln for ln in s.splitlines() if "generated_at" not in ln]

    ok = strip(first) == strip(second)
    report(14, "byte-identical reports modulo timestamp", ok)


def shift_schedule_slopes(monkeypatch, delta):
    real = green._run_schedule

    def shifted(*args, **kwargs):
        side = real(*args, **kwargs)
        return replace(side, slope=side.slope + delta,
                       slopes=[s + delta for s in side.slopes])

    monkeypatch.setattr(green, "_run_schedule", shifted)


def test_shifted_schedule_slope_fails_criteria_01_and_10(monkeypatch):
    # The gates must reject slopes off by 1e-6. Criterion 10 (bound 1e-8)
    # sees 100 times its bound. On criterion 01 the shift lands on the
    # bound itself: the converged slopes are exact for constant profiles,
    # and at K = -1 the rounding of -1 + 1e-6 puts the deviation 3e-17
    # past it.
    shift_schedule_slopes(monkeypatch, 1e-6)
    assert not check_criterion_01()[0]
    assert not check_criterion_10()[0]


def test_shifted_slopes_or_shift_fail_criterion_09(monkeypatch):
    assert check_criterion_09()[0]
    # Both ends move together, so the residual is the shift times one minus
    # the contraction over [0, t]. A 1e-6 shift lands on the bound (9.97e-7
    # at t = pi, 1e-6 + 5e-15 at t = 10), where roundoff decides; 2e-6
    # reads 2.0e-6.
    with monkeypatch.context() as m:
        shift_schedule_slopes(m, 2e-6)
        assert not check_criterion_09()[0]
    # A shifted profile that starts 1e-5 late: the pull-back of its stable
    # line contracts the error away, the push-forward of the unstable line
    # does not.
    real = CurvatureProfile.shifted
    monkeypatch.setattr(CurvatureProfile, "shifted",
                        lambda self, t0: real(self, t0 + 1e-5))
    assert not check_criterion_09()[0]


def test_unflipped_unstable_route_fails_criteria_08_and_10(monkeypatch):
    # The unstable slope is the stable slope of the time-reflected profile
    # with its sign changed. Without the sign change it lands near minus
    # itself: criterion 10 reads the wrong sign, and criterion 08 stops at
    # green_both's guard, since the unstable slope now lies below the
    # stable one.
    monkeypatch.setattr(green.GreenSide, "reflected", lambda self: self)
    assert not check_criterion_10()[0]
    with pytest.raises(NumericalInconsistencyError, match="negative transversality gap"):
        check_criterion_08()
