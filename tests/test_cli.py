import dataclasses
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from magflow import (AbstractProfile, ConfigError, CurvatureProfile, FourierSeries1D,
                     NumericalInconsistencyError, SamplingConfig, anosov, classify, cli,
                     flow, geometry)
from magflow.cli import build_model, build_sampling, main, run, sweep, validate_config

AREA = 4 * math.pi


def constant_config(tmp_path, b=0.5, **extra):
    cfg = {
        "model": {"kind": "constant", "K": -1.0, "b": b, "chi": -2, "area": AREA},
        "ensemble": {"count": 4, "seed": 0, "horizon": 60.0},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    return cfg


def torus_config(tmp_path, name="out", **extra):
    # every orbit meets a conjugate point before t = 6, so each integrates
    # only its plus orbit
    cfg = {
        "model": {"kind": "torus", "phi": {"cos": {"1,0": 0.05}},
                  "b": {"const": 0.6, "sin": {"0,1": 0.2}}},
        "ensemble": {"count": 3, "seed": 11, "horizon": 30.0},
        "output_dir": str(tmp_path / name),
    }
    cfg.update(extra)
    return cfg


def orbit_csvs(outdir):
    return sorted(p.name for p in outdir.glob("orbit_*.csv"))


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_missing_model_key_is_named(self, tmp_path):
        cfg = constant_config(tmp_path)
        del cfg["model"]["K"]
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert "model.K" in str(exc.value.key)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            build_model({"kind": "sphere"})

    def test_zero_count(self, tmp_path):
        cfg = constant_config(tmp_path, ensemble={"count": 0})
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_non_monotone_grid(self, tmp_path):
        cfg = constant_config(tmp_path, sweep={"parameter": "model.b",
                                               "grid": [0.2, 0.5, 0.4]})
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("extra, key", [
        ({"ensemble": {"count": "x"}}, "ensemble.count"),
        ({"model": {"kind": "torus", "phi": {"cos": [0.1]}}}, "model.phi.cos"),
        ({"sweep": {"parameter": "model.b", "grid": ["a", "b"]}}, "sweep.grid"),
        # sweeping the intensity of a torus would replace its Fourier table
        ({"model": {"kind": "torus", "b": {"const": 0.4}},
          "sweep": {"parameter": "model.b", "grid": [0.2, 0.4]}}, "model.b"),
        ({"model": {"kind": "constant", "K": math.nan, "b": 0.5, "chi": -2,
                    "area": AREA}}, "model.K"),
        ({"model": {"kind": "constant", "K": -1.0, "b": math.inf, "chi": -2,
                    "area": AREA}}, "model.b"),
        # the export limit is cli.EXPORT_ORBIT_LIMIT, so the key is unknown
        # whatever its value
        ({"export_orbit_limit": 8}, "export_orbit_limit"),
        ({"export_orbit_limit": -1}, "export_orbit_limit"),
        # a profile's k_bound is derived from its table: a declared bound is
        # an unknown key, and so is a null one, which used to mean "derive"
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "k_bound": 1.0}}, "model.k_bound"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "k_bound": None}}, "model.k_bound"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "chi": "x"}}, "model.chi"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "area": "y"}}, "model.area"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0, "omega": 0,
                                                 "sin": {"1": 0.3}}}}, "model.kappa.omega"),
        # integers must be integral, not truncated
        ({"ensemble": {"count": 2.7}}, "ensemble.count"),
        ({"ensemble": {"seed": 1.5}}, "ensemble.seed"),
        ({"model": {"kind": "constant", "K": -1.0, "b": 0.5, "chi": -2.5,
                    "area": AREA}}, "model.chi"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "chi": -2.5}}, "model.chi"),
        ({"export_orbit_limit": 0.5}, "export_orbit_limit"),
        # the certificate has no parts to switch off, so no run differs
        # silently from its config
        ({"analyses": {"contraction": False}}, "analyses"),
        ({"analyses": {}}, "analyses"),
        # an unknown top-level key is named, so a typo is not ignored
        ({"tolerance": {"green": 1e-8}}, "tolerance"),
        # and so is one inside a section
        ({"ensemble": {"count": 4, "cuont": 8}}, "ensemble.cuont"),
        # the tolerances and the gap margin are module constants
        ({"tolerances": {"integration": 1e-10, "green": 1e-9, "gap_margin": 1e-4}},
         "tolerances"),
        ({"sweep": {"parameter": "model.b", "grid": [0.2], "step": 0.1}}, "sweep.step"),
        ({"model": {"kind": "constant", "K": -1.0, "b": 0.5, "chi": -2,
                    "area": AREA, "k": 1.0}}, "model.k"),
        ({"model": {"kind": "torus", "phii": {"cos": {"1,0": 0.1}}}}, "model.phii"),
        ({"model": {"kind": "torus", "phi": {"coss": {"1,0": 0.1}}}}, "model.phi.coss"),
        # nor is a bound taken under another spelling
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "k_bond": 1.5}}, "model.k_bond"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0, "omgea": 2.0}}},
         "model.kappa.omgea"),
        # a mistyped sweep parameter would run the base model at every point
        ({"sweep": {"parameter": "model.bb", "grid": [0.2, 0.4]}}, "model.bb"),
        ({"sweep": {"parameter": "horizon", "grid": [10.0, 20.0]}}, "horizon"),
        # values SamplingConfig refuses, named by their config keys
        ({"ensemble": {"count": 0}}, "ensemble.count"),
        ({"ensemble": {"horizon": -1.0}}, "ensemble.horizon"),
        ({"ensemble": {"seed": -3}}, "ensemble.seed"),
        ({"ensemble": {"seed": True}}, "ensemble.seed"),
        # a profile has no surface, so no area: a number there is refused too
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "area": -5}}, "model.area"),
    ])
    def test_malformed_value_is_named(self, tmp_path, extra, key):
        with pytest.raises(ConfigError) as exc:
            validate_config(constant_config(tmp_path, **extra))
        assert exc.value.key == key

    @pytest.mark.parametrize("spec", [
        {"kind": "constant", "K": -1.0, "b": 0.5, "chi": -2, "area": AREA},
        {"kind": "torus", "b": {"const": 0.5}},
        {"kind": "profile", "kappa": {"const": -1.0}},
    ])
    def test_b_scale_is_a_key_of_every_kind(self, spec):
        build_model(dict(spec, b_scale=1.0))

    @pytest.mark.parametrize("grid, monotone", [
        ([0.5], True), ([0.2, 0.4], True), ([0.4, 0.2], True),
        ([0.2, 0.2], False), ([0.2, 0.4, 0.4], False), ([0.4, 0.2, 0.3], False),
    ])
    def test_grid_must_be_strictly_monotone(self, tmp_path, grid, monotone):
        cfg = constant_config(tmp_path, sweep={"parameter": "model.b", "grid": grid})
        if monotone:
            assert len(validate_config(cfg)[2]) == len(grid)
        else:
            with pytest.raises(ConfigError, match="strictly monotone"):
                validate_config(cfg)

    def test_integral_floats_are_integers(self, tmp_path):
        cfg = constant_config(tmp_path, ensemble={"count": 2.0, "seed": 3.0})
        model, sampling, _ = validate_config(cfg)
        assert (sampling.ensemble_count, sampling.seed) == (2, 3)
        assert type(sampling.ensemble_count) is int and type(sampling.seed) is int
        big = build_sampling({"ensemble": {"seed": 2**60 + 1}})
        assert big.seed == 2**60 + 1
        assert build_model(dict(constant_config(tmp_path)["model"], chi=-2.0)).chi == -2

    def test_every_sampling_field_has_a_key(self, tmp_path):
        # every SamplingConfig field is reachable from the config file
        cfg = constant_config(
            tmp_path,
            ensemble={"count": 3, "seed": 7, "horizon": 50.0},
        )
        built, default = build_sampling(cfg), SamplingConfig()
        for f in dataclasses.fields(SamplingConfig):
            assert getattr(built, f.name) != getattr(default, f.name), f.name

    def test_torus_and_profile_models_build(self):
        torus = build_model({
            "kind": "torus", "Lx": 1.0, "Ly": 2.0,
            "phi": {"cos": {"1,0": 0.1}},
            "b": {"const": 0.3, "sin": {"0,1": 0.1}},
            "b_scale": 2.0,
        })
        assert torus.b.const == pytest.approx(0.6)
        prof = build_model({
            "kind": "profile",
            "kappa": {"const": -1.0, "omega": 1.0, "sin": {"1": 0.3}},
        })
        assert prof.k_bound == pytest.approx(math.sqrt(1.3), abs=1e-3)
        # omega only scales the harmonics: a constant series needs none
        prof = build_model({"kind": "profile", "kappa": {"const": -1.0, "omega": 0}})
        assert prof.kappa(3.0) == -1.0
        assert prof.k_bound == pytest.approx(1.0, abs=1e-6)

    def test_profile_without_k_bound_passes_its_own_check(self):
        # the bound comes from const - sum |amplitudes| = -1.1; the minimum
        # of 4096 samples over one period sat 2e-8 above the one the
        # 2048-point check on [0, 100] finds, past the 1e-9 margin
        prof = build_model({
            "kind": "profile",
            "kappa": {"const": -0.8, "omega": 0.7, "cos": {"1": 0.2}, "sin": {"2": 0.1}},
        })
        assert prof.k_bound == pytest.approx(math.sqrt(1.1), abs=1e-9)
        assert classify(prof).verdict == "NumericallyAnosov"

    def test_default_k_bound_of_a_large_negative_const(self):
        # K_MARGIN is below the spacing of floats at 8e8, so sqrt(-kmin +
        # K_MARGIN) squared fell short of -kmin and failed its own check
        prof = build_model({"kind": "profile",
                            "kappa": {"const": -806384158.3129885, "sin": {"1": 0.3}}})
        assert prof.k_bound**2 >= 806384158.3129885 + 0.3

    def test_profile_k_bound_is_the_series_bound(self):
        table = {"const": -0.8, "omega": 0.7, "cos": {"1": 0.2}, "sin": {"2": 0.1}}
        series = FourierSeries1D(const=-0.8, omega=0.7, cos_coeffs={1: 0.2},
                                 sin_coeffs={2: 0.1})
        prof = build_model({"kind": "profile", "kappa": table, "chi": -2})
        assert prof.kappa == series and prof.chi == -2
        assert prof.k_bound == CurvatureProfile.from_series(series).k_bound


class TestRun:
    def test_anosov_run(self, tmp_path):
        cfg = constant_config(tmp_path, b=0.5)
        rc = run(cfg)
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["report"]["verdict"] == "NumericallyAnosov"
        assert (tmp_path / "out" / "summary.txt").exists()
        # a constant model has no orbit, so no trace is written
        assert orbit_csvs(tmp_path / "out") == []

    def test_torus_run_reports_topology(self, tmp_path):
        cfg = {
            "model": {"kind": "torus", "b": {"const": 0.4}},
            "ensemble": {"count": 2, "seed": 1, "horizon": 25.0},
            "output_dir": str(tmp_path / "out"),
        }
        rc = run(cfg)
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["report"]["verdict"] == "NotAnosov"
        assert "euler characteristic" in payload["report"]["reason"]

    def test_exit_codes_through_main(self, tmp_path):
        path = write_config(tmp_path, constant_config(tmp_path, b=0.5))
        assert main([path]) == 0

    def test_window_shorter_than_schedule_is_recorded(self, tmp_path):
        # a horizon of 4 ends the orbit profiles before the first slope
        # schedule point at t = 5: every orbit records the typed error and
        # the run ends normally, on the verdict chi = 0 decides
        cfg = {
            "model": {"kind": "torus", "phi": {}, "b": {"const": 0.05}},
            "ensemble": {"count": 2, "seed": 0, "horizon": 4},
            "output_dir": str(tmp_path / "out"),
        }
        assert main([write_config(tmp_path, cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
        assert report["verdict"] == "NotAnosov"
        assert [o["error"].split(":")[0] for o in report["orbits"]] == [
            "InsufficientDataError"] * 2

    def test_failed_inequality_quadrature_still_writes_the_report(self, tmp_path):
        # phi = 30 cos(2 pi x) puts exp(60) into the inequality integrand,
        # past what the quadrature resolves; chi = 0 decides the verdict
        cfg = {
            "model": {"kind": "torus", "phi": {"cos": {"1,0": 30}},
                      "b": {"const": 0.5}},
            "ensemble": {"count": 1, "seed": 0, "horizon": 1.0},
            "export_orbits": False,
            "output_dir": str(tmp_path / "out"),
        }
        with np.errstate(all="ignore"):
            assert main([write_config(tmp_path, cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
        assert report["verdict"] == "NotAnosov"
        assert report["reason"] == "euler characteristic >= 0"
        assert report["inequality"]["error"].startswith("ResolutionError: ")
        assert report["inequality"]["passes"] is None
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "integral inequality: ResolutionError" in summary

    def test_harmonic_free_profile_reads_the_closed_form(self, tmp_path):
        # a constant written as a Fourier series is the constant profile,
        # read in closed form rather than integrated
        cfg = {"model": {"kind": "profile", "kappa": {"const": -0.7}},
               "ensemble": {"count": 1}, "output_dir": str(tmp_path / "out")}
        assert run(cfg) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
        assert report["verdict"] == "NumericallyAnosov"
        assert report["orbits"][0]["u_plus"] == -math.sqrt(0.7)
        assert report["orbits"][0]["u_minus"] == math.sqrt(0.7)

    def test_verbose_prints_the_verdict_on_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, constant_config(tmp_path, b=0.5))
        assert main([path]) == 0
        assert capsys.readouterr().out == ""
        assert main([path, "-v"]) == 0
        assert capsys.readouterr().out == (
            "verdict: NumericallyAnosov (all 1 sampled orbits: converged gap > "
            "0.0001, stable contraction confirmed)\n")

    def test_verbose_leaves_the_logger_as_it_found_it(self, tmp_path, capsys):
        log = logging.getLogger("magflow")
        handlers, level = list(log.handlers), log.level
        cfg = constant_config(tmp_path, b=0.5, sweep={"parameter": "model.b",
                                                      "grid": [0.5, 1.2]})
        path = write_config(tmp_path, cfg)
        for _ in range(2):
            assert main([path, "-v"]) == 0
            assert (log.handlers, log.level) == (handlers, level)
            assert capsys.readouterr().out == ("model.b = 0.5 -> NumericallyAnosov\n"
                                               "model.b = 1.2 -> NotAnosov\n")

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([str(bad)]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_exits_one_and_names_key(self, tmp_path, capsys):
        cfg = constant_config(tmp_path)
        del cfg["model"]["area"]
        path = write_config(tmp_path, cfg)
        assert main([path]) == 1
        assert "model.area" in capsys.readouterr().err

    # finite values past what the model or the sample grid can hold: each is
    # refused before any allocation, where Python's float ** or numpy's
    # linspace would otherwise raise untyped (the k_bound**2 of a table
    # whose lower bound is -inf, b**2, exp(-phi), a grid of 1e302 samples)
    @pytest.mark.parametrize("cfg, key", [
        ({"model": {"kind": "profile", "kappa": {"const": -1e308, "cos": {"1": 1e308}}}},
         "model.kappa"),
        ({"model": {"kind": "constant", "K": -1.0, "b": 1e200, "chi": -2,
                    "area": AREA}}, "model.b"),
        (constant_config(Path("."), sweep={"parameter": "model.b",
                                           "grid": [0.5, 1e154, 1e308]}), "model.b"),
        ({"model": {"kind": "torus", "phi": {"const": -800}}}, "model.phi"),
        ({"model": {"kind": "torus", "phi": {"const": 800}}}, "model.phi"),
        (torus_config(Path("."), ensemble={"count": 1, "horizon": 1e300}),
         "ensemble.horizon"),
        (constant_config(Path("."), ensemble={"count": 1, "horizon": 1e300}),
         "ensemble.horizon"),
    ], ids=["k_bound", "b", "b_sweep", "phi_low", "phi_high", "torus_horizon",
            "constant_horizon"])
    def test_extreme_value_is_a_named_config_error(self, tmp_path, capsys, cfg, key):
        cfg = dict(cfg, output_dir=str(tmp_path / "out"))
        assert main([write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: " % key)
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_kappa_table_is_a_named_config_error(self, tmp_path, capsys):
        # 1e308 + 1e308 cos t overflows on the sample grid: the window check
        # reads the samples as not finite, with no RuntimeWarning on the way
        cfg = {"model": {"kind": "profile", "kappa": {"const": 1e308, "cos": {"1": 1e308}}},
               "output_dir": str(tmp_path / "out")}
        assert main([write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == (
            "config error: model.kappa: kappa is not finite on [0, 100]\n")

    @pytest.mark.parametrize("override", [False, True], ids=["as-written", "override"])
    @pytest.mark.parametrize("malformed, key, words", [
        (lambda tmp: [1, 2], "", "top-level config must be an object"),
        (lambda tmp: "x", "", "top-level config must be an object"),
        (lambda tmp: None, "", "top-level config must be an object"),
        (lambda tmp: constant_config(tmp, output_dir=5), "output_dir",
         "output_dir must be a string, got 5"),
        (lambda tmp: constant_config(tmp, export_orbits="false"), "export_orbits",
         "export_orbits must be true or false, got 'false'"),
        # float() reads a boolean and a numeric string
        (lambda tmp: constant_config(tmp, b=True), "model.b",
         "model.b must be a number, got True"),
        (lambda tmp: constant_config(tmp, ensemble={"count": True}), "ensemble.count",
         "ensemble.count must be a number, got True"),
        (lambda tmp: constant_config(tmp, ensemble={"horizon": "20"}), "ensemble.horizon",
         "ensemble.horizon must be a number, got '20'"),
    ], ids=["list", "string", "null", "output_dir", "export_orbits", "bool_b",
            "bool_count", "string_horizon"])
    def test_malformed_config_names_its_key(self, tmp_path, capsys, malformed, key,
                                            words, override):
        # a config file's own output_dir is checked even when --output-dir
        # replaces it
        cfg = malformed(tmp_path)
        argv = [write_config(tmp_path, cfg)]
        if override:
            argv += ["--output-dir", str(tmp_path / "elsewhere")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: %s\n" % words
        assert not list(tmp_path.rglob("report.json"))
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.key == key

    def test_non_finite_report_is_a_typed_error(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(NumericalInconsistencyError, match="report.json"):
            cli._json_dump({"growth_A": math.nan}, path)
        assert not path.exists()

    def test_missing_file_exits_one(self, tmp_path):
        assert main([str(tmp_path / "absent.json")]) == 1

    def test_output_dir_override(self, tmp_path):
        cfg = constant_config(tmp_path, b=0.5)
        path = write_config(tmp_path, cfg)
        override = tmp_path / "elsewhere"
        assert main([str(path), "--output-dir", str(override)]) == 0
        assert (override / "report.json").exists()

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg = constant_config(tmp_path, b=0.5)
        run(cfg)
        first = (tmp_path / "out" / "report.json").read_text()
        run(cfg)
        second = (tmp_path / "out" / "report.json").read_text()

        def strip(s):
            return [ln for ln in s.splitlines() if "generated_at" not in ln]

        assert strip(first) == strip(second)
        assert first.count("generated_at") == 1


class TestExport:
    def test_each_orbit_is_integrated_once(self, tmp_path, monkeypatch):
        calls = []
        real = flow.integrate_orbit

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        for module in (geometry, anosov, cli):
            if hasattr(module, "integrate_orbit"):
                monkeypatch.setattr(module, "integrate_orbit", counted)
        assert run(torus_config(tmp_path)) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
        assert all(o["conjugate_time"] is not None for o in report["orbits"])
        assert len(calls) == 3
        assert orbit_csvs(tmp_path / "out") == [
            "orbit_000.csv", "orbit_001.csv", "orbit_002.csv"]

    def test_csvs_match_a_direct_integration(self, tmp_path):
        cfg, outdir = torus_config(tmp_path), tmp_path / "out"
        assert run(cfg) == 0
        model, sampling, _ = validate_config(cfg)
        states = model.ensemble(sampling.ensemble_count, sampling.seed)
        assert len(orbit_csvs(outdir)) == len(states)
        for i, v0 in enumerate(states):
            direct = tmp_path / "direct.csv"
            flow.integrate_orbit(model, v0, sampling.horizon,
                                 flow.DEFAULT_TOL).to_csv(direct)
            assert (outdir / ("orbit_%03d.csv" % i)).read_bytes() == direct.read_bytes()

    def test_export_limit_bounds_the_kept_traces(self, tmp_path, monkeypatch):
        reports, kept = [], []
        real = cli.classify

        def spy(*args, **kwargs):
            report = real(*args, **kwargs)
            reports.append(report)
            kept.append([o.trace is not None for o in report.orbits])
            return report

        monkeypatch.setattr(cli, "classify", spy)
        monkeypatch.setattr(cli, "EXPORT_ORBIT_LIMIT", 1)
        assert run(torus_config(tmp_path)) == 0
        assert kept == [[True, False, False]]
        assert orbit_csvs(tmp_path / "out") == ["orbit_000.csv"]
        # written traces are dropped
        assert all(o.trace is None for o in reports[0].orbits)

    def test_parallel_export_matches_serial(self, tmp_path):
        assert run(torus_config(tmp_path, "serial")) == 0
        assert run(torus_config(tmp_path, "parallel"), workers=2) == 0
        names = orbit_csvs(tmp_path / "serial")
        assert len(names) == 3 and orbit_csvs(tmp_path / "parallel") == names
        for name in names:
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "parallel" / name).read_bytes())

    def test_report_has_no_trace(self, tmp_path):
        assert run(torus_config(tmp_path)) == 0
        orbits = json.loads((tmp_path / "out" / "report.json").read_text())[
            "report"]["orbits"]
        assert len(orbits) == 3 and not any("trace" in o for o in orbits)

    def test_orbit_over_budget_has_no_csv(self, tmp_path, monkeypatch):
        # the overrun is recorded on each orbit, the report is written and
        # chi = 0 decides the verdict
        monkeypatch.setattr(flow, "ORBIT_NFEV_BUDGET", 100)
        assert main([write_config(tmp_path, torus_config(tmp_path))]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())["report"]
        assert report["reason"] == "euler characteristic >= 0"
        assert [o["error"].split(":")[0] for o in report["orbits"]] == [
            "IntegrationFailure"] * 3
        assert orbit_csvs(tmp_path / "out") == []
        assert (tmp_path / "out" / "summary.txt").exists()


class TestSweep:
    def test_threshold_crossing(self, tmp_path):
        grid = [0.8, 0.9, 1.0, 1.1]
        cfg = constant_config(tmp_path, sweep={"parameter": "model.b", "grid": grid})
        assert sweep(cfg) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "parameter,verdict,min_gap,fitted_c,inequality_lhs,inequality_rhs"
        rows = [ln.split(",") for ln in lines[1:]]
        verdicts = {float(r[0]): r[1] for r in rows}
        assert verdicts[0.8] == "NumericallyAnosov"
        assert verdicts[0.9] == "NumericallyAnosov"
        assert verdicts[1.0] == "NotAnosov"
        assert verdicts[1.1] == "NotAnosov"

    def test_single_point_matches_run(self, tmp_path):
        cfg_run = constant_config(tmp_path, b=0.5)
        cfg_run["output_dir"] = str(tmp_path / "single_run")
        run(cfg_run)
        report = json.loads((tmp_path / "single_run" / "report.json").read_text())

        cfg_sw = constant_config(tmp_path, b=0.5,
                                 sweep={"parameter": "model.b", "grid": [0.5]})
        cfg_sw["output_dir"] = str(tmp_path / "single_sweep")
        sweep(cfg_sw)
        lines = (tmp_path / "single_sweep" / "sweep.csv").read_text().splitlines()
        row = lines[1].split(",")
        assert row[1] == report["report"]["verdict"]
        gap_run = report["report"]["orbits"][0]["gap"]
        assert float(row[2]) == pytest.approx(gap_run, abs=1e-12)

    def test_profile_run_samples_its_window_once_per_build(self, tmp_path, monkeypatch):
        # the config check builds the model once and run reuses it; the
        # only other window check is the one classify makes
        calls = []
        real = AbstractProfile.validate_window
        monkeypatch.setattr(AbstractProfile, "validate_window",
                            lambda self, *w: calls.append(w) or real(self, *w))
        cfg = {
            "model": {"kind": "profile", "kappa": {"const": -1.0, "sin": {"1": 0.3}}},
            "output_dir": str(tmp_path / "out"),
        }
        assert run(cfg) == 0
        assert len(calls) == 2

    def test_parallel_points_match_serial(self, tmp_path):
        cfg = {
            "model": {"kind": "profile", "kappa": {"const": -1.0, "sin": {"1": 0.3}}},
            "sweep": {"parameter": "model.kappa.const", "grid": [-1.0, -0.5]},
            "output_dir": str(tmp_path / "serial"),
        }
        assert sweep(cfg) == 0
        cfg["output_dir"] = str(tmp_path / "parallel")
        assert sweep(cfg, workers=2) == 0
        assert ((tmp_path / "serial" / "sweep.csv").read_text()
                == (tmp_path / "parallel" / "sweep.csv").read_text())

    def test_dispatch_through_main(self, tmp_path):
        cfg = constant_config(tmp_path, sweep={"parameter": "model.b",
                                               "grid": [0.4, 0.6]})
        path = write_config(tmp_path, cfg)
        assert main([path]) == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
