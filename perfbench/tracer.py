"""Per-layer tracing of magflow from outside the program.

Wrappers are installed on the module attribute where each caller looks a
name up (the package imports names with ``from .x import y``, so wrapping
``magflow.flow.integrate_orbit`` alone would miss ``magflow.anosov``'s and
``magflow.cli``'s copies). Every wrapped call opens a frame on one stack:

* layer-boundary calls record a span (id, name, unit id, parent id, start,
  end); the spans of one unit share the unit id;
* hot leaf calls (Fourier evaluations, ``magnetic_curvature``) are only
  counted and timed, because they run hundreds of thousands of times per
  orbit and one span each would swamp memory;
* ``solve_ivp`` in each module is a transparent counter: it adds calls and
  ``nfev`` (right-hand-side evaluations) but opens no frame, so its time
  stays with the layer that called it.

``total`` time is the inclusive duration of a name's calls; ``self`` time
is that minus the time of the wrapped calls directly beneath it.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.totals = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()   # work counters
        self.spans = []           # (id, name, unit, parent, start, end)
        self._stack = []          # open frames: [span id, child seconds]
        self._next_id = 1
        self.unit = 0
        self.orbit_depth = 0
        self.minus_profiles = {}  # id -> minus profile integrated on a chart
        self.missing = []         # names absent from this version of magflow
        self._patches = []

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append("%s.%s" % (owner.__name__, attr))
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, owner, attr, name, span=True, unit=False, before=None,
             after=None, orbit=False):
        """Wrap owner.attr as a traced call recorded under ``name``."""
        tot = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                parent = stack[-1] if stack else None
                prev_unit = self.unit
                if unit:
                    self.unit = self._next_id
                if span:
                    sid = self._next_id
                    self._next_id += 1
                else:
                    sid = parent[0] if parent else 0
                frame = [sid, 0.0]
                stack.append(frame)
                self.orbit_depth += orbit
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    self.orbit_depth -= orbit
                    stack.pop()
                    dur = t1 - t0
                    if parent is not None:
                        parent[1] += dur
                    tot[0] += 1
                    tot[1] += dur
                    tot[2] += dur - frame[1]
                    if span:
                        spans.append((sid, name, self.unit,
                                      parent[0] if parent else 0, t0, t1))
                    self.unit = prev_unit
                if after is not None:
                    after(args, result)
                return result
            return wrapper

        self._patch(owner, attr, make)

    def counter(self, owner, layer):
        """Count ``owner.solve_ivp`` calls and their RHS evaluations."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                sol = fn(*args, **kwargs)
                counts[layer + ".solve_ivp_calls"] += 1
                counts[layer + ".rhs_evals"] += sol.nfev
                if self.orbit_depth:
                    counts["orbit.solve_ivp_calls"] += 1
                    counts["orbit.rhs_evals"] += sol.nfev
                return sol
            return wrapper

        self._patch(owner, "solve_ivp", make)

    # -- hooks ---------------------------------------------------------------

    def _after_pair(self, args, result):
        from magflow.geometry import ConformalTorus

        if isinstance(args[0], ConformalTorus):
            minus = result[1]
            self.minus_profiles[id(minus)] = minus
            self.counts["flow.minus_orbits"] += 1

    def _before_green(self, args):
        p = self.minus_profiles.pop(id(args[0]), None)
        if p is not None and p is args[0]:
            self.counts["flow.minus_orbits_used"] += 1

    def _after_green(self, args, est):
        for side in (est.plus, est.minus):
            if side is not None:
                self.counts["green.schedule_segments"] += len(side.r_schedule)
                self.counts["green.converged"] += bool(side.converged)

    def _after_orbit(self, args, res):
        self.counts["anosov.conjugate_exits"] += res.conjugate_time is not None


def install(tracer: Tracer, unit_name: str):
    """Wrap the public functions of every layer. ``unit_name`` is the traced
    name whose calls are the workload's units."""
    from magflow import anosov, cli, flow, fourier, green, jacobi, riccati

    t = tracer

    def call(owner, attr, name, **kw):
        t.call(owner, attr, name, unit=(name == unit_name), **kw)

    for attr in ("__call__", "dx", "dy", "laplacian"):
        call(fourier.FourierSeries2D, attr, "fourier.series2d", span=False)
    for attr in ("__call__", "eval_mp"):
        call(fourier.FourierSeries1D, attr, "fourier.series1d", span=False)

    call(flow, "magnetic_curvature", "geometry.magnetic_curvature", span=False)
    call(anosov, "integral_inequality_check", "geometry.integral_inequality")

    call(anosov, "integrate_orbit", "flow.integrate_orbit")
    call(cli, "integrate_orbit", "cli.export_orbit")
    call(flow.OrbitTrace, "to_csv", "cli.export_csv")
    call(anosov, "curvature_profile", "flow.curvature_profile")

    for owner in (anosov, green, jacobi):
        call(owner, "first_zero", "jacobi.first_zero")
    for owner in (anosov, jacobi):
        call(owner, "integrate_jacobi", "jacobi.integrate_jacobi")

    for owner in (anosov, green):
        call(owner, "green_slope", "green.green_slope",
             before=t._before_green, after=t._after_green)
    call(green, "invariance_residual", "green.invariance_residual")

    call(anosov, "analyze_orbit", "anosov.analyze_orbit", orbit=True,
         after=t._after_orbit)
    call(anosov, "orbit_profile_pair", "anosov.orbit_profile_pair",
         after=t._after_pair)
    call(anosov, "contraction_fit", "anosov.contraction_fit")
    call(anosov, "growth_floor", "anosov.growth_floor")
    call(anosov, "bounded_jacobi_witness", "anosov.witness")
    call(anosov, "sampled_kappa_extrema", "anosov.sampled_kappa_extrema")
    for owner in (anosov, cli):
        call(owner, "classify", "anosov.classify")

    call(cli, "run", "cli.run")
    call(cli, "sweep", "cli.sweep")

    for owner, layer in ((flow, "flow"), (jacobi, "jacobi"), (green, "green"),
                         (riccati, "riccati")):
        t.counter(owner, layer)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit; the order is the report order
LAYER_METRICS = {
    "fourier.series2d_calls": "count",
    "fourier.series2d_s": "s",
    "fourier.series1d_calls": "count",
    "fourier.series1d_s": "s",
    "geometry.magnetic_curvature_calls": "count",
    "geometry.magnetic_curvature_s": "s",
    "geometry.integral_inequality_s": "s",
    "flow.integrate_orbit_calls": "count",
    "flow.integrate_orbit_self_s": "s",
    "flow.solve_ivp_calls": "count",
    "flow.rhs_evals": "count",
    "flow.curvature_profile_s": "s",
    "flow.minus_orbit_use_ratio": "ratio",
    "jacobi.first_zero_calls": "count",
    "jacobi.first_zero_s": "s",
    "jacobi.integrate_jacobi_calls": "count",
    "jacobi.integrate_jacobi_s": "s",
    "jacobi.solve_ivp_calls": "count",
    "jacobi.rhs_evals": "count",
    "green.green_slope_calls": "count",
    "green.green_slope_self_s": "s",
    "green.solve_ivp_calls": "count",
    "green.rhs_evals": "count",
    "green.schedule_segments": "count",
    "green.converged_ratio": "ratio",
    "green.invariance_mp_s": "s",
    "anosov.analyze_orbit_calls": "count",
    "anosov.analyze_orbit_self_s": "s",
    "anosov.orbit_profile_pair_s": "s",
    "anosov.contraction_fit_s": "s",
    "anosov.growth_floor_s": "s",
    "anosov.witness_s": "s",
    "anosov.sampled_kappa_extrema_s": "s",
    "anosov.classify_self_s": "s",
    "anosov.solve_ivp_per_orbit": "count",
    "anosov.rhs_evals_per_orbit": "count",
    "anosov.conjugate_exit_ratio": "ratio",
    "cli.self_s": "s",
    "cli.export_integrations": "count",
    "cli.export_s": "s",
}


def is_counter(name: str) -> bool:
    """Metrics that must repeat exactly between two runs of one input."""
    return LAYER_METRICS.get(name) in ("count", "ratio")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass, keyed as in LAYER_METRICS."""
    tot = {k: tuple(v) for k, v in tracer.totals.items()}
    c = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    # invariance_residual time outside its green_slope children (mostly the
    # mpmath slopes and the eval_mp calls they make)
    inv = {s[0]: s[5] - s[4] for s in tracer.spans if s[1] == "green.invariance_residual"}
    for s in tracer.spans:
        if s[1] == "green.green_slope" and s[3] in inv:
            inv[s[3]] -= s[5] - s[4]

    orbits = calls("anosov.analyze_orbit")
    slopes = calls("green.green_slope")
    values = {
        "fourier.series2d_calls": calls("fourier.series2d"),
        "fourier.series2d_s": total("fourier.series2d"),
        "fourier.series1d_calls": calls("fourier.series1d"),
        "fourier.series1d_s": total("fourier.series1d"),
        "geometry.magnetic_curvature_calls": calls("geometry.magnetic_curvature"),
        "geometry.magnetic_curvature_s": total("geometry.magnetic_curvature"),
        "geometry.integral_inequality_s": total("geometry.integral_inequality"),
        "flow.integrate_orbit_calls": calls("flow.integrate_orbit")
        + calls("cli.export_orbit"),
        "flow.integrate_orbit_self_s": self_s("flow.integrate_orbit")
        + self_s("cli.export_orbit"),
        "flow.solve_ivp_calls": c["flow.solve_ivp_calls"],
        "flow.rhs_evals": c["flow.rhs_evals"],
        "flow.curvature_profile_s": total("flow.curvature_profile"),
        "flow.minus_orbit_use_ratio": _ratio(c["flow.minus_orbits_used"],
                                             c["flow.minus_orbits"]),
        "jacobi.first_zero_calls": calls("jacobi.first_zero"),
        "jacobi.first_zero_s": total("jacobi.first_zero"),
        "jacobi.integrate_jacobi_calls": calls("jacobi.integrate_jacobi"),
        "jacobi.integrate_jacobi_s": total("jacobi.integrate_jacobi"),
        "jacobi.solve_ivp_calls": c["jacobi.solve_ivp_calls"],
        "jacobi.rhs_evals": c["jacobi.rhs_evals"],
        "green.green_slope_calls": slopes,
        "green.green_slope_self_s": self_s("green.green_slope"),
        "green.solve_ivp_calls": c["green.solve_ivp_calls"],
        "green.rhs_evals": c["green.rhs_evals"],
        "green.schedule_segments": c["green.schedule_segments"],
        "green.converged_ratio": _ratio(c["green.converged"], slopes),
        "green.invariance_mp_s": sum(inv.values()),
        "anosov.analyze_orbit_calls": orbits,
        "anosov.analyze_orbit_self_s": self_s("anosov.analyze_orbit"),
        "anosov.orbit_profile_pair_s": total("anosov.orbit_profile_pair"),
        "anosov.contraction_fit_s": total("anosov.contraction_fit"),
        "anosov.growth_floor_s": total("anosov.growth_floor"),
        "anosov.witness_s": total("anosov.witness"),
        "anosov.sampled_kappa_extrema_s": total("anosov.sampled_kappa_extrema"),
        "anosov.classify_self_s": self_s("anosov.classify"),
        "anosov.solve_ivp_per_orbit": _ratio(c["orbit.solve_ivp_calls"], orbits),
        "anosov.rhs_evals_per_orbit": _ratio(c["orbit.rhs_evals"], orbits),
        "anosov.conjugate_exit_ratio": _ratio(c["anosov.conjugate_exits"], orbits),
        "cli.self_s": self_s("cli.run") + self_s("cli.sweep"),
        "cli.export_integrations": calls("cli.export_orbit"),
        "cli.export_s": total("cli.export_orbit") + total("cli.export_csv"),
    }
    return values
