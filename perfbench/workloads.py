"""The three benchmark workloads: seeded inputs, one pass, correctness checks.

Each workload has a ``setup`` step (import ``magflow``, build and validate
the models and configs) and a ``run_pass`` step that computes every verdict
or residual of the workload once and checks each unit. A *unit* is one
orbit (``torus_cli``), one classification (``certify``) or one residual
(``invariance``).

With a ``reference.Ruler`` the pass interleaves reference runs with the
workload; their time is taken out of every pass and unit time, and the
pass reports the median reference time measured during it and around each
unit.

Only the standard library is imported at module level, so that the set-up
timer covers the import of ``magflow`` and of numpy/scipy behind it.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
import time
import traceback
from pathlib import Path

WHY = {
    "torus_cli": "cli.run on a bumpy torus at horizon 200: the orbit layer "
                 "(flow, 2D fourier, geometry) does most of the work, plus the "
                 "cli re-integration for export",
    "certify": "classifications without orbits: cli.sweep over b on the K=-1 "
               "constant model across b=1, then classify on abstract Fourier "
               "profiles (green and jacobi with a 1D fourier evaluator)",
    "invariance": "invariance_residual at t=10: the only path through mpmath "
                  "(extended-precision slopes and FourierSeries1D.eval_mp)",
}
NAMES = tuple(WHY)

AREA = 4.0 * math.pi  # Gauss-Bonnet area for K = -1, chi = -2
GAP_MARGIN = 1e-4      # SamplingConfig default, used by the profile check
GAP_TOL = 1e-6         # certify sweep: |gap - 2 sqrt(1 - b^2)|
RESIDUAL_TOL = 1e-6    # invariance: acceptance criterion 09 bound

# (full, tiny) sizes; tiny is the harness self-check
SIZES = {
    "torus_cli": ({"orbits": 2, "horizon": 200.0}, {"orbits": 1, "horizon": 20.0}),
    "certify": ({"points": 25, "profiles": 15}, {"points": 3, "profiles": 2}),
    "invariance": ({"t": 10.0}, {"t": 1.0}),
}


def _spent(ruler):
    return ruler.spent if ruler is not None else 0.0


def _start(ruler):
    return time.perf_counter(), _spent(ruler)


class Unit:
    """One unit's outcome within a pass."""

    __slots__ = ("key", "latency_s", "ok", "why", "span", "ref_s")

    def __init__(self, key, ok=False, why=""):
        self.key, self.ok, self.why = key, ok, why
        self.latency_s = None  # seconds, less the reference time in them
        self.span = None       # (start, end) on the perf_counter clock
        self.ref_s = None      # median reference time around the unit

    def stop(self, start, ruler):
        """Record the latency of a unit begun at ``start = _start(ruler)``."""
        t0, r0 = start
        t1 = time.perf_counter()
        self.latency_s = t1 - t0 - (_spent(ruler) - r0)
        self.span = (t0, t1)

    def fail(self, why):
        self.ok, self.why = False, why


# ---------------------------------------------------------------------------
# set-up: inputs from the seed, then import, build and validate
# ---------------------------------------------------------------------------


def _torus_config(rng, size):
    return {
        "model": {
            "kind": "torus",
            "phi": {"cos": {"1,0": 0.05}},
            "b": {"const": 0.6, "sin": {"0,1": 0.2}},
        },
        # the seed offsets the Halton sequence of initial conditions
        "ensemble": {"count": size["orbits"], "seed": rng.randrange(100_000),
                     "horizon": size["horizon"]},
        "export_orbits": True,
    }


def _sweep_config(size):
    # The criterion-03 grid 0.2, 0.25, ..., 1.4 for every seed. Jittering the
    # points from the seed moved single units across schedule-doubling steps
    # and widened the spread of unit_p50_s to the bound.
    if size["points"] == 25:
        grid = [round(0.2 + 0.05 * k, 10) for k in range(25)]
    else:
        grid = [0.5, 1.0, 1.2]
    return {
        "model": {"kind": "constant", "K": -1.0, "b": 1.0, "chi": -2, "area": AREA},
        "ensemble": {"count": 4, "seed": 0, "horizon": 60.0},
        "sweep": {"parameter": "model.b", "grid": grid},
    }


def _profile_specs(rng, n):
    """Hyperbolic Fourier profiles shaped like the test family, with the
    mean curvature and the frequency stratified over their ranges so every
    seed draws the same mix of fast and slow schedules."""
    order = list(range(n))
    rng.shuffle(order)
    specs = []
    for i in range(n):
        c0 = -(0.3 + 0.7 * (i + rng.random()) / n)
        omega = 0.5 + 1.5 * (order[i] + rng.random()) / n
        amp = 0.25 * abs(c0)
        cos = {1: amp * (2.0 * rng.random() - 1.0)}
        sin = {1: amp * (2.0 * rng.random() - 1.0),
               2: 0.5 * amp * (2.0 * rng.random() - 1.0)}
        # analytic lower bound of the series: a true bound on every window
        kmin = c0 - sum(abs(a) for a in (*cos.values(), *sin.values()))
        specs.append((c0, omega, cos, sin, math.sqrt(-kmin)))
    return specs


def _half_wave(t):
    return -max(0.0, math.sin(t)) ** 2


def setup(name: str, seed: int, tiny: bool = False):
    """Import magflow and build the workload's validated inputs.

    Returns (inputs, seconds, description). The description lists the input
    sizes for the report.
    """
    rng = random.Random("%s:%d" % (name, seed))
    size = dict(SIZES[name][1 if tiny else 0])
    t0 = time.perf_counter()
    import magflow
    from magflow import cli

    if name == "torus_cli":
        cfg = _torus_config(rng, size)
        cli.validate_config(cfg)  # builds the model and the sampling config
        inputs = {"cfg": cfg, "units": size["orbits"]}
    elif name == "certify":
        cfg = _sweep_config(size)
        cli.validate_config(cfg)
        grid = cfg["sweep"]["grid"]
        models = []
        for c0, omega, cos, sin, kb in _profile_specs(rng, size["profiles"]):
            series = magflow.FourierSeries1D(const=c0, omega=omega,
                                             cos_coeffs=cos, sin_coeffs=sin)
            models.append(magflow.AbstractProfile(kappa=series, k_bound=kb))
        models.append(magflow.AbstractProfile(kappa=_half_wave, k_bound=1.0))
        for m in models:
            m.validate_window(0.0, 100.0)
        inputs = {"cfg": cfg, "grid": grid, "models": models,
                  "units": len(grid) + len(models)}
    elif name == "invariance":
        # The criterion-09 profile -1 + 0.3 sin t for every seed: the number
        # of mpmath Taylor steps changes by +-10% with a phase shift of the
        # same profile, which would swamp the bound on run_s.
        if tiny:
            profile = magflow.CurvatureProfile.constant(-1.0)
        else:
            profile = magflow.CurvatureProfile.from_series(
                magflow.FourierSeries1D(const=-1.0, sin_coeffs={1: 0.3}))
        inputs = {"profile": profile, "t": size["t"], "units": 1}
    else:
        raise ValueError("unknown workload %r" % name)
    seconds = time.perf_counter() - t0
    return inputs, seconds, dict(size, seed=seed)


# ---------------------------------------------------------------------------
# one pass: every unit once, each checked
# ---------------------------------------------------------------------------




def _timed_units(owner, attr, key_of, ruler):
    """Wrap owner.attr so each call's latency, less the reference time in
    it, is recorded as a unit.

    Returns (units list, restore callable)."""
    fn = getattr(owner, attr)
    units = []

    def wrapper(*args, **kwargs):
        start = _start(ruler)
        try:
            return fn(*args, **kwargs)
        finally:
            u = Unit(key_of(args), True)
            u.stop(start, ruler)
            units.append(u)

    setattr(owner, attr, wrapper)
    return units, lambda: setattr(owner, attr, fn)


def _pass_torus(inputs, outdir, ruler):
    from magflow import anosov, cli

    cfg = dict(inputs["cfg"], output_dir=str(outdir))
    n = inputs["units"]
    units, restore = _timed_units(anosov, "analyze_orbit", lambda a: a[2], ruler)
    try:
        status = cli.run(cfg)
    finally:
        restore()
    report = json.loads((outdir / "report.json").read_text())["report"]
    by_id = {u.key: u for u in units}
    problems = []
    if status != 0:
        problems.append("exit status %d" % status)
    if report["verdict"] != "NotAnosov" or report["reason"] != "euler characteristic >= 0":
        problems.append("verdict %s (%s)" % (report["verdict"], report["reason"]))
    if len(report["orbits"]) != n or len(by_id) != n:
        problems.append("%d orbits reported, %d analysed, %d expected"
                        % (len(report["orbits"]), len(by_id), n))
    for o in report["orbits"]:
        u = by_id.setdefault(o["orbit_id"], Unit(o["orbit_id"]))
        if o["error"]:
            u.fail("orbit error: %s" % o["error"])
        elif o["conjugate_time"] is None:
            u.fail("no conjugate time")
        elif not (outdir / ("orbit_%03d.csv" % o["orbit_id"])).is_file():
            u.fail("orbit csv not exported")
    for u in by_id.values():
        if problems:
            u.fail("; ".join(problems))
    return list(by_id.values())


def _pass_sweep(inputs, outdir, ruler):
    from magflow import cli

    grid = inputs["grid"]
    cfg = dict(inputs["cfg"], output_dir=str(outdir))
    units, restore = _timed_units(cli, "classify", lambda a: None, ruler)
    try:
        cli.sweep(cfg)
    finally:
        restore()
    with open(outdir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(grid) or len(units) != len(grid):
        for u in units:
            u.fail("%d rows, %d classifications for %d grid points"
                   % (len(rows), len(units), len(grid)))
        return units
    for u, b, row in zip(units, grid, rows):
        u.key = b
        if float(row["parameter"]) != b:
            u.fail("row for b=%s out of order" % row["parameter"])
        elif b < 1.0:
            exact = 2.0 * math.sqrt(1.0 - b * b)
            gap = float(row["min_gap"]) if row["min_gap"] else math.nan
            if row["verdict"] != "NumericallyAnosov" or not abs(gap - exact) <= GAP_TOL:
                u.fail("b=%r: %s, gap %r vs %r" % (b, row["verdict"], gap, exact))
        elif row["verdict"] != "NotAnosov":
            u.fail("b=%r: %s" % (b, row["verdict"]))
    return units


def _pass_profiles(inputs, ruler):
    from magflow import anosov

    out = []
    for i, model in enumerate(inputs["models"]):
        u = Unit("profile %d" % i)
        start = _start(ruler)
        try:
            rep = anosov.classify(model)
        except Exception as exc:  # a raw exception is a failed unit
            u.stop(start, ruler)
            u.fail("%s: %s" % (type(exc).__name__, exc))
            out.append(u)
            continue
        u.stop(start, ruler)
        o = rep.orbits[0]
        u.ok = (rep.verdict == "NumericallyAnosov" and o.error is None
                and o.gap_converged and o.gap is not None and o.gap > GAP_MARGIN)
        if not u.ok:
            u.why = "%s (%s), gap %r" % (rep.verdict, rep.reason, o.gap)
        out.append(u)
    return out


def _pass_certify(inputs, outdir, ruler):
    return _pass_sweep(inputs, outdir, ruler) + _pass_profiles(inputs, ruler)


def _pass_invariance(inputs, outdir, ruler):
    from magflow import green

    u = Unit(0)
    start = _start(ruler)
    try:
        r = green.invariance_residual(inputs["profile"], inputs["t"])
    except Exception as exc:
        u.fail("%s: %s" % (type(exc).__name__, exc))
        r = None
    u.stop(start, ruler)
    if r is not None:
        u.ok = r < RESIDUAL_TOL
        if not u.ok:
            u.why = "residual %r" % r
    return [u]


_PASSES = {
    "torus_cli": _pass_torus,
    "certify": _pass_certify,
    "invariance": _pass_invariance,
}


def run_pass(name: str, inputs, outdir: Path, ruler=None):
    """Compute every unit of the workload once.

    Returns (seconds, units, why, attempted, ref_s): ``why`` describes the
    first failures; ``ref_s`` is the median reference time of the pass, or
    None without a ruler, and each unit carries the median reference time
    around it. ``seconds`` and unit latencies leave out the reference time.
    An exception escaping the program fails every unit of the pass; it
    never ends the benchmark.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if ruler is not None:
        r0 = ruler.spent
        ruler.start()
    units, why = [], None
    try:
        units = _PASSES[name](inputs, outdir, ruler)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        units, why = [], "%s: %s" % (type(exc).__name__, exc)
    finally:
        ref_s = None
        if ruler is not None:
            ruler.stop()
            ref_s = ruler.median_between(t0, time.perf_counter())
            for u in units:
                if u.span is not None:
                    u.ref_s = ruler.median_near(*u.span)
    seconds = time.perf_counter() - t0 - (ruler.spent - r0 if ruler is not None else 0.0)
    if why is not None:
        return seconds, [], why, inputs["units"], ref_s
    failed = [u for u in units if not u.ok]
    why = "; ".join("unit %r: %s" % (u.key, u.why) for u in failed[:3])
    return seconds, units, why, max(inputs["units"], len(units)), ref_s
