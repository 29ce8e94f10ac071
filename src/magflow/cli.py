"""Config-driven entry point: classification runs and parameter sweeps.

A run is declared in a JSON file::

    {
      "model": {"kind": "constant", "K": -1.0, "b": 0.5,
                "chi": -2, "area": 12.566370614359172},
      "ensemble": {"count": 64, "seed": 0, "horizon": 200.0},
      "output_dir": "out"
    }

Model kinds: ``constant`` (K, b, chi, area), ``torus`` (Lx, Ly, phi, b as
Fourier tables {"const": c, "cos": {"m,n": amp}, "sin": {...}}), and
``profile`` (kappa as a 1D Fourier table {"const": c, "omega": w,
"cos": {"j": amp}, "sin": {...}} and an optional chi; its k_bound is
``CurvatureProfile.from_series``'s, read from the certified lower bound
c - sum_j hypot(cos_j, sin_j), and a table the model cannot be built from
is a ConfigError naming ``model.kappa``). Every model accepts an optional
``b_scale`` multiplying the intensity.

Adding a ``sweep`` section {"parameter": "model.b", "grid": [...]} turns
the run into a sweep: one classification per grid value, aggregated into
``sweep.csv``. Every classification runs the whole certificate. A key
outside ``CONFIG_KEYS`` at the top level (``analyses``, say), outside
``SECTION_KEYS`` in a section or outside its kind's ``MODEL_KEYS`` (and
``b_scale``) in the model is a ConfigError naming it, and so is a
mistyped sweep parameter; the tolerances, the gap margin and the export
limit ``EXPORT_ORBIT_LIMIT`` are module constants and a profile's k_bound
is derived, so ``tolerances``, ``export_orbit_limit`` and ``model.k_bound``
are unknown keys too. So is a top level that is not an object (key
``""``), an ``output_dir`` that is not a string, an ``export_orbits``
that is not a boolean, and a value ``SamplingConfig`` rejects (a horizon
that is not positive, an ensemble count below one, a negative seed).
The verdict of a run and the summary lines of a sweep go to the
``magflow`` logger at INFO; ``-v`` prints them on stdout. Exit status: 0
when a verdict was reached (either way), 2 when Inconclusive, 1 on
configuration or I/O errors. Only a torus has orbits, so only a torus run
writes orbit CSVs.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import logging
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from .anosov import SCHEMA_VERSION, SamplingConfig, _map_jobs, classify
from .errors import ConfigError, MagflowError, NumericalInconsistencyError
from .flow import CurvatureProfile
from .fourier import FourierSeries1D, FourierSeries2D
from .geometry import VALIDATION_WINDOW, AbstractProfile, ConformalTorus, ConstantCurvature

CONFIG_KEYS = ("model", "ensemble", "sweep", "output_dir", "export_orbits")
# the orbit traces a run exports, unless export_orbits is false
EXPORT_ORBIT_LIMIT = 8
# the ensemble key and kind of number of each SamplingConfig field
SAMPLING_KEYS = {
    "ensemble_count": ("count", int),
    "seed": ("seed", int),
    "horizon": ("horizon", float),
}
# the keys inside each section; a model takes its kind's keys and b_scale
SECTION_KEYS = {
    "ensemble": tuple(name for name, _kind in SAMPLING_KEYS.values()),
    "sweep": ("parameter", "grid"),
}
MODEL_KEYS = {
    "constant": ("K", "b", "chi", "area"),
    "torus": ("Lx", "Ly", "phi", "b"),
    "profile": ("kappa", "chi"),
}
log = logging.getLogger("magflow")


def _number(value, key, kind=float):
    """value as a finite number of the given kind (float or int), or a
    ConfigError naming key; an int must be integral (2.0 is, 2.7 is not).
    A JSON boolean or string is no number, although float() reads it."""
    if isinstance(value, (bool, str)):
        raise ConfigError("%s must be a number, got %r" % (key, value), key)
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("%s must be a number, got %r" % (key, value), key)
    if not math.isfinite(out):
        raise ConfigError("%s must be finite, got %r" % (key, value), key)
    if kind is int:
        if not out.is_integer():
            raise ConfigError("%s must be an integer, got %r" % (key, value), key)
        # an int stays exact past 2**53
        return value if type(value) is int else int(out)
    return out


def _optional(value, key, kind):
    """_number for an optional key: None stays None."""
    return None if value is None else _number(value, key, kind)


def _table(value, key, allowed):
    """The JSON object under key; absent or null reads as empty. Unless
    ``allowed`` is None, a key outside it is a ConfigError naming key.name."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError("%s must be an object, got %r" % (key, value), key)
    for name in value:
        if allowed is not None and name not in allowed:
            full = "%s.%s" % (key, name) if key else name
            raise ConfigError("unknown config key %r" % full, full)
    return value


def _mode_2d(k):
    """A 2D Fourier table key 'm,n' as the pair (m, n)."""
    m, n = (int(p) for p in str(k).split(","))
    return m, n


def _parse_coeffs(table, key, read_mode, noun, want):
    """{mode: amplitude} of a Fourier table, each table key read by
    ``read_mode``; a key it cannot read is a ConfigError naming the
    ``noun`` and the form it should have (``want``)."""
    out = {}
    for k, v in _table(table, key, None).items():
        try:
            mode = read_mode(k)
        except (TypeError, ValueError):
            raise ConfigError("bad %s key %r under %s (want %s)" % (noun, k, key, want),
                              key) from None
        out[mode] = _number(v, "%s.%s" % (key, k))
    return out


def _series_2d(spec, Lx, Ly, key):
    spec = _table(spec, key, ("const", "cos", "sin"))
    return FourierSeries2D(
        Lx=Lx, Ly=Ly,
        const=_number(spec.get("const", 0.0), key + ".const"),
        cos_coeffs=_parse_coeffs(spec.get("cos"), key + ".cos", _mode_2d, "mode", "'m,n'"),
        sin_coeffs=_parse_coeffs(spec.get("sin"), key + ".sin", _mode_2d, "mode", "'m,n'"),
    )


def _model_error(exc: ValueError, kind: str) -> ConfigError:
    """A model's ValueError as a ConfigError naming the key it leads with."""
    head = str(exc).split()[0]
    key = "model." + head if head in MODEL_KEYS[kind] else "model"
    return ConfigError("%s: %s" % (key, exc), key)


def build_model(spec: dict):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("model.kind is required", "model.kind")
    kind = spec["kind"]
    # tuple membership compares by ==, so an unhashable kind reads as unknown
    if kind not in tuple(MODEL_KEYS):
        raise ConfigError("unknown model.kind %r" % kind, "model.kind")
    _table(spec, "model", ("kind", "b_scale") + MODEL_KEYS[kind])
    scale = _number(spec.get("b_scale", 1.0), "model.b_scale")
    if kind == "constant":
        for k in ("K", "b", "chi", "area"):
            if k not in spec:
                raise ConfigError("model.%s is required for constant models" % k,
                                  "model." + k)
        try:
            return ConstantCurvature(
                K=_number(spec["K"], "model.K"),
                b=scale * _number(spec["b"], "model.b"),
                chi=_number(spec["chi"], "model.chi", int),
                area=_number(spec["area"], "model.area"),
            )
        except ValueError as exc:
            raise _model_error(exc, kind) from None
    if kind == "torus":
        Lx = _number(spec.get("Lx", 1.0), "model.Lx")
        Ly = _number(spec.get("Ly", 1.0), "model.Ly")
        if Lx <= 0 or Ly <= 0:
            raise ConfigError("model periods must be positive", "model.Lx")
        phi = _series_2d(spec.get("phi"), Lx, Ly, "model.phi")
        b = _series_2d(spec.get("b"), Lx, Ly, "model.b")
        if scale != 1.0:
            b = b.scaled(scale)
        try:
            return ConformalTorus(phi=phi, b=b)
        except ValueError as exc:
            raise _model_error(exc, kind) from None
    kspec = spec.get("kappa")
    if not isinstance(kspec, dict):
        raise ConfigError("model.kappa table is required for profile models",
                          "model.kappa")
    _table(kspec, "model.kappa", ("const", "omega", "cos", "sin"))
    if scale != 1.0:
        raise ConfigError("b_scale is not defined for profile models",
                          "model.b_scale")
    series = FourierSeries1D(
        const=_number(kspec.get("const", 0.0), "model.kappa.const"),
        omega=_number(kspec.get("omega", 1.0), "model.kappa.omega"),
        cos_coeffs=_parse_coeffs(kspec.get("cos"), "model.kappa.cos", int,
                                 "harmonic", "integer"),
        sin_coeffs=_parse_coeffs(kspec.get("sin"), "model.kappa.sin", int,
                                 "harmonic", "integer"),
    )
    if series.omega == 0 and (series.cos_coeffs or series.sin_coeffs):
        raise ConfigError("model.kappa.omega must be nonzero for a series "
                          "with harmonics", "model.kappa.omega")
    chi = _optional(spec.get("chi"), "model.chi", int)
    try:
        model = AbstractProfile(kappa=series, chi=chi,
                                k_bound=CurvatureProfile.from_series(series).k_bound)
        model.validate_window(*VALIDATION_WINDOW)
    except ValueError as exc:
        raise ConfigError("model.kappa: %s" % exc, "model.kappa") from None
    return model


def build_sampling(cfg: dict) -> SamplingConfig:
    """The run's SamplingConfig, each field read from its ensemble key in
    SAMPLING_KEYS. SamplingConfig checks the values itself; its ValueError,
    which leads with the field, becomes a ConfigError naming that field's
    key."""
    ensemble = _table(cfg.get("ensemble"), "ensemble", SECTION_KEYS["ensemble"])
    values = {field: _number(ensemble[name], "ensemble." + name, kind)
              for field, (name, kind) in SAMPLING_KEYS.items() if name in ensemble}
    try:
        return SamplingConfig(**values)
    except ValueError as exc:
        key = "ensemble." + SAMPLING_KEYS[str(exc).split()[0]][0]
        raise ConfigError("%s: %s" % (key, exc), key) from None


def _output_dir(cfg: dict) -> Path:
    out = cfg.get("output_dir", "out")
    if not isinstance(out, str):
        raise ConfigError("output_dir must be a string, got %r" % (out,), "output_dir")
    return Path(out)


def _exports(cfg: dict) -> int:
    """The orbit traces a run exports: EXPORT_ORBIT_LIMIT of them, or none
    when export_orbits is false."""
    export = cfg.get("export_orbits", True)
    if not isinstance(export, bool):
        raise ConfigError("export_orbits must be true or false, got %r" % (export,),
                          "export_orbits")
    return EXPORT_ORBIT_LIMIT if export else 0


def _build(cfg: dict) -> tuple:
    """(model, sampling) of a run config, with its top-level keys, output
    directory and exports checked; the sweep section is not read here."""
    if "model" not in _table(cfg, "", CONFIG_KEYS):
        raise ConfigError("model section is required", "model")
    model, sampling = build_model(cfg["model"]), build_sampling(cfg)
    _output_dir(cfg)
    _exports(cfg)
    return model, sampling


def validate_config(cfg: dict):
    """Check the whole config, sweep points included. Returns what it
    built: the base (model, sampling) and, per sweep grid value, a
    (value, model, sampling) triple (an empty list without a sweep). A
    mistyped sweep parameter is an unknown key of its point's config."""
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be an object", "")
    model, sampling = _build(cfg)
    points = []
    sweep = cfg.get("sweep")
    if sweep is not None:
        sweep = _table(sweep, "sweep", SECTION_KEYS["sweep"])
        if "parameter" not in sweep or "grid" not in sweep:
            raise ConfigError("sweep needs 'parameter' and 'grid'", "sweep")
        grid = sweep["grid"]
        if not isinstance(grid, list) or len(grid) < 1:
            raise ConfigError("sweep.grid must be a nonempty list", "sweep.grid")
        grid = [_number(v, "sweep.grid") for v in grid]
        diffs = [b - a for a, b in zip(grid, grid[1:])]
        if any(d <= 0 for d in diffs) and any(d >= 0 for d in diffs):
            raise ConfigError("sweep.grid must be strictly monotone", "sweep.grid")
        for v in sweep["grid"]:
            points.append((v, *_build(_point_config(cfg, sweep["parameter"], v))))
    return model, sampling, points


def _point_config(base_cfg: dict, path: str, value) -> dict:
    """The run config of one sweep point: the swept key set to value."""
    cfg = copy.deepcopy(base_cfg)
    cfg.pop("sweep", None)
    parts = str(path).split(".")
    node = cfg
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            raise ConfigError("sweep.parameter path %r not found" % path,
                              "sweep.parameter")
        node = node[p]
    node[parts[-1]] = value
    return cfg


def _json_dump(obj, path: Path):
    """Write obj as JSON; a non-finite float is refused before the file is
    opened, so no invalid JSON is ever written."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalInconsistencyError("%s: %s" % (path.name, exc)) from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_summary(path: Path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg: dict, workers: int = 1) -> int:
    """Single classification run; writes report.json, summary.txt and
    per-orbit CSV series into the output directory. The CSVs are the
    traces classify integrated, for the first ``EXPORT_ORBIT_LIMIT``
    orbits of a torus (no other model has orbits). The verdict goes to the
    ``magflow`` logger at INFO."""
    model, sampling, _ = validate_config(cfg)
    outdir = _output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)

    # a constant or profile model has no orbit, so it keeps no trace
    report = classify(model, sampling, workers=workers, keep_traces=_exports(cfg))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "report": report.to_dict(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    _json_dump(payload, outdir / "report.json")

    lines = [
        "verdict: %s" % report.verdict,
        "reason:  %s" % report.reason,
    ]
    if report.inequality is not None and "error" in report.inequality:
        lines.append("integral inequality: %s" % report.inequality["error"])
    elif report.inequality is not None:
        lines.append(
            "integral inequality: lhs = %.12g, rhs = %.12g, passes = %s"
            % (report.inequality["lhs"], report.inequality["rhs"],
               report.inequality["passes"])
        )
    for o in report.orbits:
        if o.conjugate_time is not None:
            lines.append("orbit %d: conjugate point at t = %.9g"
                         % (o.orbit_id, o.conjugate_time))
        elif o.gap is not None:
            lines.append(
                "orbit %d: gap = %.9g (converged=%s)"
                % (o.orbit_id, o.gap, o.gap_converged)
            )
        elif o.error:
            lines.append("orbit %d: error %s" % (o.orbit_id, o.error))
    _write_summary(outdir / "summary.txt", lines)

    # an orbit whose integration failed has no trace and no CSV
    for o in report.orbits:
        if o.trace is not None:
            o.trace.to_csv(outdir / ("orbit_%03d.csv" % o.orbit_id))
            o.trace = None

    log.info("verdict: %s (%s)", report.verdict, report.reason)
    return 0 if report.verdict in ("NumericallyAnosov", "NotAnosov") else 2


def _sweep_point(value, model, sampling):
    report = classify(model, sampling, workers=1)
    gaps = [o.gap for o in report.orbits if o.gap is not None]
    cs = [o.contraction.c for o in report.orbits if o.contraction is not None]
    ineq = report.inequality or {}
    return {
        "parameter": value,
        "verdict": report.verdict,
        "min_gap": min(gaps) if gaps else "",
        "fitted_c": min(cs) if cs else "",
        "inequality_lhs": ineq.get("lhs", ""),
        "inequality_rhs": ineq.get("rhs", ""),
    }


def sweep(cfg: dict, workers: int = 1) -> int:
    """Classification per grid value of the swept parameter; one CSV row
    per point in grid order, and one summary line per point to the
    ``magflow`` logger at INFO."""
    _, _, jobs = validate_config(cfg)
    spec = cfg.get("sweep")
    if spec is None:
        raise ConfigError("sweep section missing", "sweep")
    param = spec["parameter"]
    outdir = _output_dir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = _map_jobs(_sweep_point, jobs, workers)

    fields = ["parameter", "verdict", "min_gap", "fitted_c",
              "inequality_lhs", "inequality_rhs"]
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (repr(v) if isinstance(v, float) else v)
                             for k, v in row.items()})

    lines = ["%s = %r -> %s" % (param, r["parameter"], r["verdict"]) for r in rows]
    _write_summary(outdir / "summary.txt", lines)
    for ln in lines:
        log.info(ln)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="magflow",
        description="Certify or refute uniform hyperbolicity of a magnetic "
                    "flow declared in a JSON config.",
    )
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument("--output-dir", help="override the config output_dir")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers for sweep points and orbits")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print("error: cannot read config %s: %s" % (args.config, exc),
              file=sys.stderr)
        return 1
    # -v prints the logger's INFO records on stdout for this call alone
    handler, level = logging.StreamHandler(sys.stdout), log.level
    if args.verbose:
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be an object", "")
        if args.output_dir:
            _output_dir(cfg)  # the file's own value must be valid too
            cfg["output_dir"] = args.output_dir
        if cfg.get("sweep") is not None:
            return sweep(cfg, workers=args.workers)
        return run(cfg, workers=args.workers)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 1
    except MagflowError as exc:
        print("run failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
