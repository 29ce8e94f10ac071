import dataclasses
import json
import math

import pytest

from magflow import AbstractProfile, ConfigError, SamplingConfig
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

    def test_nonpositive_tolerance(self, tmp_path):
        cfg = constant_config(tmp_path, tolerances={"green": 0.0})
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.key == "tolerances.green"

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
        ({"export_orbit_limit": "x"}, "export_orbit_limit"),
        ({"export_orbit_limit": -1}, "export_orbit_limit"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "k_bound": -1}}, "model.k_bound"),
        # min kappa = -1.5 lies below -k_bound**2 = -0.25
        ({"model": {"kind": "profile", "kappa": {"const": -1.0, "sin": {"1": 0.5}},
                    "k_bound": 0.5}}, "model.k_bound"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "chi": "x"}}, "model.chi"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0},
                    "area": "y"}}, "model.area"),
        ({"model": {"kind": "profile", "kappa": {"const": -1.0, "omega": 0,
                                                 "sin": {"1": 0.3}}}}, "model.kappa.omega"),
    ])
    def test_malformed_value_is_named(self, tmp_path, extra, key):
        with pytest.raises(ConfigError) as exc:
            validate_config(constant_config(tmp_path, **extra))
        assert exc.value.key == key

    def test_every_sampling_field_has_a_key(self, tmp_path):
        # every SamplingConfig field is reachable from the config file
        cfg = constant_config(
            tmp_path,
            ensemble={"count": 3, "seed": 7, "horizon": 50.0},
            tolerances={"integration": 1e-9, "green": 1e-8, "gap_margin": 1e-3},
            analyses={"inequality": False, "conjugate": False, "gaps": False,
                      "contraction": False, "negativity": False},
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


class TestRun:
    def test_anosov_run(self, tmp_path):
        cfg = constant_config(tmp_path, b=0.5)
        rc = run(cfg)
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["report"]["verdict"] == "NumericallyAnosov"
        assert (tmp_path / "out" / "summary.txt").exists()
        assert (tmp_path / "out" / "orbit_000.csv").exists()

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
