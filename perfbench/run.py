#!/usr/bin/env python3
"""magflow benchmark: end-to-end timings, a traced per-layer split and work
counters on four certification workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Workloads: torus_cli, certify, invariance (see ``workloads.WHY``). The
package is imported from ``src/`` of the checkout this file sits in, in one
process, with ``workers=1`` and BLAS threads pinned to 1.

``--trace 0`` repeats whole passes of the workload until ``--seconds`` have
been measured, or until the next pass would end past 1.5 * ``--seconds``
(at least one pass). A reference computation (``reference.py``) is timed between
the workload's calls, and every time below except ``setup_s`` is a multiple
of the median reference time of its own pass, or around its own unit (unit
``x_ref``): the host's speed drifts by up to 2x between minutes, and the
ratio much less. The
end-to-end metrics are:

* ``setup_s``: import of magflow plus building and validating the
  workload's models and configs, in seconds; the median of five cold
  set-ups (this process and four fresh child processes);
* ``run_rel``: the median over passes of one pass's time, until every
  verdict or residual of the workload is computed;
* ``unit_p50_rel`` and ``unit_tail_rel``: of each distinct unit's median
  latency over the passes, the median and the highest percentile that has
  at least ten units beyond it (the slowest unit when there are fewer than
  eleven);
* ``peak_rss_mb``: the peak resident memory of this process.

The same figures in seconds, and the reference time itself, are in the
``detail`` line printed before the result.

``--trace 1`` runs one untraced pass and then two traced passes with the
same inputs, all without the reference, prints the per-layer metrics of
``tracer.LAYER_METRICS`` (times in seconds, the mean of the two traced
passes; counters must agree exactly) plus ``trace_overhead_s``, and writes
the spans of the last pass to ``.perfbench-spans/<workload>-seed<N>.jsonl``.

Every unit is checked. Units that fail or raise are counted in ``failed``
of the last output line; the run then exits with status 1.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy can be imported
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBES = 4            # child-process set-ups per run, besides this process's
PROBE_TIMEOUT_S = 120
SPAN_DIR = ROOT / ".perfbench-spans"

sys.path.insert(0, str(SRC))
import reference  # noqa: E402  (stdlib-only at import)
import workloads  # noqa: E402


def _fail(msg: str, code: int = 2):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(code)


def _check_source():
    if not (SRC / "magflow" / "__init__.py").is_file():
        _fail("magflow sources not found under %s" % SRC)


def _check_import():
    import magflow

    origin = Path(magflow.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        _fail("imported magflow from %s, not from this checkout" % origin)


def _setup_probe(name, seed, tiny):
    """Cold set-up in a fresh interpreter; returns its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _per_unit_medians(latencies, relative=True):
    """Median latency of each distinct unit over the passes, in multiples
    of the reference time around it (in seconds unless ``relative``). The
    median and the tail are taken over these, so that they follow the units
    of the input rather than single slow calls."""
    by_key = {}
    for key, s, r in latencies:
        by_key.setdefault(key, []).append(s / r if relative else s)
    return [statistics.median(xs) for xs in by_key.values()] or [0.0]


def _environment():
    import mpmath
    import numpy
    import scipy

    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": rev,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": THREADS,
    }


class Tally:
    """Units attempted and failed over the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []   # (unit key, seconds, reference seconds around it)
        self.passes = []      # (seconds, reference seconds)
        self.problems = []

    def add(self, seconds, units, why, attempted, ref_s=None):
        self.passes.append((seconds, ref_s))
        self.attempted += attempted
        ok = sum(1 for u in units if u.ok)
        self.failed += attempted - ok
        self.latencies += [(u.key, u.latency_s, u.ref_s) for u in units
                           if u.latency_s is not None]
        if why:
            self.problems.append(why)

    @property
    def pass_s(self):
        return [s for s, _ in self.passes]


def _measure(name, inputs, outdir, seconds, ruler):
    """Untraced passes, with the reference interleaved, until ``seconds``
    have been measured, or until the next pass would end past
    1.5 * ``seconds``; at least one pass."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        tally.add(*workloads.run_pass(name, inputs, outdir / ("p%d" % len(tally.passes)),
                                      ruler))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + statistics.median(tally.pass_s) > 1.5 * seconds:
            return tally, ruler


# the traced name whose calls are each workload's units
UNIT_SPAN = {
    "torus_cli": "anosov.analyze_orbit",
    "certify": "anosov.classify",
    "invariance": "green.invariance_residual",
}


def _traced_pass(name, inputs, outdir):
    import tracer as tr

    t = tr.Tracer()
    try:
        tr.install(t, UNIT_SPAN[name])
        result = workloads.run_pass(name, inputs, outdir)
    finally:
        t.restore()
    return result, t


def _write_spans(path, t):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for sid, name, unit, parent, t0, t1 in t.spans:
            fh.write(json.dumps({"id": sid, "name": name, "unit": unit,
                                 "parent": parent, "start": t0, "end": t1}) + "\n")


def run_untraced(name, seed, seconds, tiny, outdir):
    inputs, own_setup, desc = workloads.setup(name, seed, tiny)
    _check_import()
    cpu, cpu_ref_s = reference.pin_fastest_cpu()
    setups = [own_setup] + [_setup_probe(name, seed, tiny) for _ in range(PROBES)]
    tally, ruler = _measure(name, inputs, outdir, seconds, reference.Ruler())
    runs = [s / r for s, r in tally.passes]
    units = _per_unit_medians(tally.latencies)
    units_s = _per_unit_medians(tally.latencies, relative=False)
    tail, pct = _tail(units)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_rel": (statistics.median(runs), "x_ref"),
        "unit_p50_rel": (statistics.median(units), "x_ref"),
        "unit_tail_rel": (tail, "x_ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "workload": name, "why": workloads.WHY[name], "inputs": desc,
        "passes": len(tally.passes), "pass_s": tally.pass_s,
        "pass_ref_s": [r for _, r in tally.passes],
        "run_s": statistics.median(tally.pass_s),
        "unit_p50_s": statistics.median(units_s), "unit_tail_s": _tail(units_s)[0],
        "reference": {"runs": len(ruler.samples),
                      "fingerprint": ruler.fingerprint,
                      "median_s": statistics.median(dt for _, dt in ruler.samples),
                      "share_of_run": ruler.spent / max(sum(tally.pass_s), 1e-9),
                      "cpu": cpu, "cpu_probe_s": cpu_ref_s},
        "setup_samples_s": setups,
        "unit_samples": len(tally.latencies), "unit_tail_percentile": pct,
        "distinct_units": len({k for k, _, _ in tally.latencies}),
        "fail_ratio": tally.failed / tally.attempted,
        "problems": tally.problems[:5], "environment": _environment(),
    }
    return metrics, tally, detail


def run_traced(name, seed, tiny, outdir):
    import tracer as tr

    inputs, _setup_s, desc = workloads.setup(name, seed, tiny)
    _check_import()
    tally = Tally()
    tally.add(*workloads.run_pass(name, inputs, outdir / "untraced"))
    runs = []
    for i in range(2):
        (seconds, units, why, attempted, _ref), t = _traced_pass(
            name, inputs, outdir / ("traced%d" % i))
        tally.add(seconds, units, why, attempted)
        runs.append((seconds, tr.layer_metrics(t), t))
    first, second = runs[0][1], runs[1][1]
    mismatched = [k for k in tr.LAYER_METRICS
                  if tr.is_counter(k) and first[k] != second[k]]
    if mismatched:
        tally.problems.append("counters differ between traced passes: %s"
                              % ", ".join("%s %r != %r" % (k, first[k], second[k])
                                          for k in mismatched))
    metrics = {}
    for k, unit in tr.LAYER_METRICS.items():
        v = first[k] if tr.is_counter(k) else (first[k] + second[k]) / 2.0
        metrics[k] = (v, unit)
    traced_s = statistics.mean(r[0] for r in runs)
    metrics["trace_overhead_s"] = (traced_s - tally.pass_s[0], "s")
    span_file = SPAN_DIR / ("%s-seed%d.jsonl" % (name, seed))
    _write_spans(span_file, runs[-1][2])
    detail = {
        "workload": name, "inputs": desc, "untraced_run_s": tally.pass_s[0],
        "traced_run_s": [r[0] for r in runs], "spans": len(runs[-1][2].spans),
        "unwrapped": runs[-1][2].missing,
        "span_file": str(span_file.relative_to(ROOT)),
        "problems": tally.problems[:5], "environment": _environment(),
    }
    return metrics, tally, detail, not mismatched


def measure(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result dict, detail dict)."""
    outdir = Path(tempfile.mkdtemp(prefix=".perfbench-out-", dir=ROOT))
    try:
        if trace:
            metrics, tally, detail, same = run_traced(name, seed, tiny, outdir)
        else:
            metrics, tally, detail = run_untraced(name, seed, seconds, tiny, outdir)
            same = True
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0 and same,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def self_check():
    """Every workload at a tiny size, untraced and traced."""
    ok = True
    for name in workloads.NAMES:
        for trace in (0, 1):
            result, detail = measure(name, 0, 0.0, trace, tiny=True)
            good = result["correct"]
            print("%-16s trace=%d %s attempted=%d %s" % (
                name, trace, "ok" if good else "FAILED", result["attempted"],
                "; ".join(detail["problems"])))
            ok &= good
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-check input sizes")
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload at a tiny size and exit")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _check_source()
    if args.self_check:
        return 0 if self_check() else 1
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        print(repr(workloads.setup(args.workload, args.seed, args.tiny)[1]))
        return 0

    result, detail = measure(args.workload, args.seed, args.seconds, args.trace,
                             args.tiny)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
