"""Configuration loading, CLI commands, output formats, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli

from lasw import config as config_module
from lasw import evolve
from lasw.cli import probe_command, run_command, sweep_command
from lasw.config import RunConfig, build_initial_field, load_config
from lasw.errors import ConfigInvalid, ConfigSyntax, InvalidControls, IoError
from lasw.io import write_coefficients_csv
from lasw.spectral import Grid, from_physical, to_physical


def minimal_config(out_dir, **overrides):
    cfg = {
        "model": {"preset": "large_amplitude", "eps": 0.2, "delta": 0.1},
        "grid": 128,
        "initial_data": {"profile": "cosine", "amplitude": 0.05, "mode": 1},
        "t_end": 1.0,
        "sample_interval": 0.1,
        "out_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestLoadConfig:
    def test_minimal_with_defaults(self, tmp_path):
        path = write_config(tmp_path, minimal_config(tmp_path / "out"))
        cfg = load_config(path)
        assert cfg.grid == 128
        assert cfg.cfl == 0.5
        assert cfg.seed == 0
        assert cfg.s_exponent == 2.0
        assert cfg.snapshot_times == ()

    def test_unknown_key_rejected(self, tmp_path):
        bad = minimal_config(tmp_path / "out")
        bad["gridd"] = 64
        with pytest.raises(ConfigSyntax):
            load_config(write_config(tmp_path, bad))

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigSyntax):
            load_config(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_config(tmp_path / "nope.json")

    def test_zero_mu_raw_coefficients_cite_invalid_mu(self, tmp_path):
        bad = minimal_config(tmp_path / "out")
        bad["model"] = {"coefficients": {"mu": 0.0, "alpha1": -1.0}}
        with pytest.raises(ConfigInvalid, match="InvalidMu"):
            load_config(write_config(tmp_path, bad))

    def test_constraint_names_field(self, tmp_path):
        # a run config's controls are checked by integrate's own argument table
        bad = minimal_config(tmp_path / "out", t_end=-1.0)
        with pytest.raises(InvalidControls, match="t_end"):
            load_config(write_config(tmp_path, bad))
        bad = minimal_config(tmp_path / "out", grid=53)
        with pytest.raises(ConfigInvalid, match="grid"):
            load_config(write_config(tmp_path, bad))

    def test_negative_seed_of_a_random_field_is_config_invalid(self, tmp_path):
        # config's seed is any integer; the field's draw admits it (was numpy's ValueError)
        bad = minimal_config(tmp_path / "out", seed=-1,
                             initial_data={"profile": "random", "max_mode": 8, "decay_exponent": 2.0})
        with pytest.raises(ConfigInvalid, match="seed: must be nonnegative"):
            load_config(write_config(tmp_path, bad)).initial_field

    def test_snapshot_times_that_write_one_file_are_rejected(self, tmp_path):
        # a file name keeps 12 digits of t: the first state was overwritten without a word
        bad = write_config(tmp_path, minimal_config(tmp_path / "out", t_end=2.0,
                                                    snapshot_times=[1.5, 1.500000000003]))
        message = "snapshot_times: 1.5 and 1.500000000003 both write snapshot_1.5.csv"
        with pytest.raises(ConfigInvalid) as raised:
            load_config(bad)
        assert str(raised.value) == message
        result = run_cli(["run", "--config", str(bad), "--quiet"])
        assert result.exit_code == 1
        assert result.stderr == f"error: ConfigInvalid: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_distinct_snapshot_files_still_run(self, tmp_path):
        cfg = minimal_config(tmp_path / "out", t_end=0.2, snapshot_times=[0.1, 0.2], dump_coefficients=True)
        assert run_command(load_config(write_config(tmp_path, cfg)), quiet=True) == 0
        written = sorted(p.name for p in (tmp_path / "out").glob("snapshot_*"))
        assert written == ["snapshot_0.1.csv", "snapshot_0.1_coef.csv", "snapshot_0.2.csv", "snapshot_0.2_coef.csv"]

    def test_unknown_preset_names_all_eight(self, tmp_path):
        bad = write_config(tmp_path, minimal_config(tmp_path / "out", model={"preset": "bogus"}))
        message = ("model.preset: unknown preset 'bogus'; expected one of "
                   "['bbm', 'ch', 'dp', 'kdv', 'large_amplitude', 'moderate', 'normalized', 'se']")
        with pytest.raises(ConfigInvalid) as raised:
            load_config(bad)
        assert str(raised.value) == message
        result = run_cli(["run", "--config", str(bad), "--quiet"])
        assert result.exit_code == 1
        assert result.stderr == f"error: ConfigInvalid: {message}\n"

    @pytest.mark.parametrize("overrides, message", [
        ({"model": {"preset": "normalized", "coefficients": {"mu": 1.0}}},
         "model: give exactly one of 'preset' or 'coefficients'"),
        ({"model": {}}, "model: give exactly one of 'preset' or 'coefficients'"),
        ({"initial_data": {"profile": "cosine", "amplitude": 0.05, "mode": 64}},
         "initial_data.mode: 64 not representable"),
        ({"initial_data": {"profile": "sine", "amplitude": 0.05, "mode": 100}},
         "initial_data.mode: 100 not representable"),
        ({"initial_data": {"samples_file": "{tmp}/words.txt"}}, "initial_data.samples_file: could not convert"),
        ({"initial_data": {}}, "initial_data: give one of 'profile', 'coefficients' or 'samples_file'"),
    ], ids=["preset-and-coefficients", "no-model", "cosine-mode", "sine-mode", "samples_file", "no-form"])
    def test_malformed_blocks_are_config_invalid(self, tmp_path, overrides, message):
        # grid 128 holds modes 1..63; the samples file holds words
        (tmp_path / "words.txt").write_text("not a number\n")
        path = write_config(tmp_path, minimal_config(tmp_path / "out", **overrides))
        path.write_text(path.read_text().replace("{tmp}", str(tmp_path)))
        with pytest.raises(ConfigInvalid) as raised:
            load_config(path).initial_field
        assert str(raised.value).startswith(message)

    def test_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            minimal_config(tmp_path / "out", snapshot_times=[0.25, 1.0], seed=7),
        )
        cfg = load_config(path)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_samples_file_must_exist(self, tmp_path):
        bad = minimal_config(tmp_path / "out")
        bad["initial_data"] = {"samples_file": str(tmp_path / "missing.txt")}
        with pytest.raises(ConfigInvalid, match="samples_file"):
            load_config(write_config(tmp_path, bad))

    def test_samples_file_round_trip(self, tmp_path):
        samples = 0.1 * np.sin(2 * math.pi * np.arange(64) / 64)
        sf = tmp_path / "u0.txt"
        np.savetxt(sf, samples)
        cfg = minimal_config(tmp_path / "out", grid=64)
        cfg["initial_data"] = {"samples_file": str(sf)}
        loaded = load_config(write_config(tmp_path, cfg))
        field = build_initial_field(loaded.initial_data, Grid(64), 0)
        assert np.max(np.abs(to_physical(field) - samples)) < 1e-12

    def test_coefficient_list_initial_data(self, tmp_path):
        cfg = minimal_config(tmp_path / "out", grid=32)
        cfg["initial_data"] = {"coefficients": [[0, 0.25, 0.0], [2, 0.1, -0.05]]}
        loaded = load_config(write_config(tmp_path, cfg))
        field = build_initial_field(loaded.initial_data, Grid(32), 0)
        assert field.mode(0) == pytest.approx(0.25)
        assert field.mode(2) == pytest.approx(0.1 - 0.05j)
        assert field.mode(-2) == pytest.approx(0.1 + 0.05j)

    def test_coefficient_dump_restarts_exactly(self, tmp_path):
        g = Grid(16)
        u = from_physical(np.random.default_rng(3).standard_normal(16), g)
        assert u.coef[8] != 0.0  # the Nyquist coefficient is in the data
        path = tmp_path / "u_coef.csv"
        write_coefficients_csv(path, u)
        rows = [
            [int(n), float(re), float(im)]
            for n, re, im in (line.split(",") for line in path.read_text().splitlines()[1:])
        ]
        assert [row[0] for row in rows] == list(range(8)) + [-8]
        restarted = build_initial_field({"coefficients": rows}, g, 0)
        assert restarted.coef.tobytes() == u.coef.tobytes()
        for bad in ([[8, 1.0, 0.0]], [[-3, 1.0, 0.0]], [[-8, 1.0, 0.5]], [[0, 1.0, 0.5]],
                    [[1, 0.1, 0, 5]],  # a fourth entry was dropped
                    [[1, 0.1, 0], [1, 0.2, 0]]):  # the later row of a mode was kept
            with pytest.raises(ConfigInvalid, match=r"bad entry|mode"):
                build_initial_field({"coefficients": bad}, g, 0)


class TestRunCommand:
    def test_artifacts_and_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig.from_dict(
            minimal_config(out, snapshot_times=[0.5, 1.0], dump_coefficients=True)
        )
        assert run_command(cfg, quiet=True) == 0
        assert (out / "diagnostics.csv").is_file()
        assert (out / "snapshot_0.5.csv").is_file()
        assert (out / "snapshot_1.csv").is_file()
        assert (out / "snapshot_0.5_coef.csv").is_file()
        info = json.loads((out / "run.json").read_text())
        assert info["status"] == "Completed"
        assert info["blowup"] is None
        assert RunConfig.from_dict(info["config"]) == cfg
        header = (out / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "t,mean,l2,hs,sup_ux,tail,sup_u"

    def test_constant_run_rows_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig.from_dict(
            minimal_config(out, initial_data={"profile": "constant", "value": 0.7})
        )
        assert run_command(cfg, quiet=True) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        l2s = {float(r.split(",")[2]) for r in rows}
        assert max(l2s) - min(l2s) <= 1e-13

    def test_full_precision_round_trip(self, tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig.from_dict(minimal_config(out))
        run_command(cfg, quiet=True)
        row = (out / "diagnostics.csv").read_text().splitlines()[1].split(",")
        # 17 significant digits survive a float round trip bit-exactly
        for cell in row:
            assert f"{float(cell):.17g}" == cell

    def test_determinism_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = RunConfig.from_dict(
                minimal_config(out, initial_data={"profile": "random", "max_mode": 8, "decay_exponent": 2.0}, seed=5)
            )
            run_command(cfg, quiet=True)
            blobs.append((out / "diagnostics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_raw_coefficient_table_runs(self, tmp_path):
        out = tmp_path / "raw"
        # the unit-coefficient member spelled out as a raw table
        table = {
            "mu": 1.0, "alpha1": 0.0, "alpha2": 1.0, "alpha3": 1.0,
            "beta1": 1.0, "beta2": 1.0, "gamma1": 4.0, "gamma2": 1.0, "gamma3": 1.0,
        }
        cfg = RunConfig.from_dict(
            minimal_config(out, model={"coefficients": table}, t_end=0.2)
        )
        assert run_command(cfg, quiet=True) == 0
        echo = json.loads((out / "run.json").read_text())["config"]
        assert echo["model"]["coefficients"] == table

    def test_blowup_exit_code(self, tmp_path):
        out = tmp_path / "blow"
        cfg = RunConfig.from_dict(minimal_config(
            out,
            model={"preset": "large_amplitude", "eps": 1.0, "delta": 0.5},
            initial_data={"profile": "sine", "amplitude": -0.8, "mode": 1},
            thresholds={"sup_ux_max": 20.0},
            sample_interval=0.02,
        ))
        assert run_command(cfg, quiet=True) == 2
        info = json.loads((out / "run.json").read_text())
        assert info["status"] == "BlowUpSuspected"
        assert info["blowup"]["trigger"] == "sup_ux"
        assert info["blowup"]["t"] > 0.0

    def test_overflowing_run_is_nonfinite_without_warning(self, tmp_path):
        # coefficients of size 1e160 square past the float range in sobolev_norm
        path = write_config(tmp_path, minimal_config(
            tmp_path / "out", grid=32, dt=0.1,
            initial_data={"profile": "cosine", "amplitude": 1e160, "mode": 1},
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 1
        assert "NonFinite" in result.output
        assert "RuntimeWarning" not in result.stderr
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_run_draws_its_initial_field_once(self, tmp_path, monkeypatch):
        # the run integrates the field its config check built
        draws = []
        draw = config_module.random_trig_polynomial

        def counted(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(config_module, "random_trig_polynomial", counted)
        cfg = minimal_config(tmp_path / "out", t_end=0.01, sample_interval=0.01,
                             initial_data={"profile": "random", "max_mode": 8})
        path = write_config(tmp_path, cfg)
        result = run_cli(["run", "--config", str(path), "--quiet"])
        assert result.exit_code == 0
        assert len(draws) == 1

    def test_t_end_within_landing_tolerance_exits_1(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(out, grid=32, t_end=1e-14))
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 1
        assert "error: InvalidControls: t_end: must exceed the landing tolerance" in result.output
        assert isinstance(result.exception, SystemExit)  # handled, no traceback
        assert not (out / "run.json").exists()

    def test_overflowing_hs_weight_is_hs_blowup_without_warning(self, tmp_path):
        # the H^100 weight overflows against zero coefficients: hs is inf, not nan
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(
            out, model={"preset": "normalized"}, grid=32, t_end=0.1, s_exponent=100,
            initial_data={"profile": "random", "max_mode": 10, "decay_exponent": 2.0},
        ))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 2
        assert json.loads((out / "run.json").read_text())["blowup"]["trigger"] == "hs"
        assert "nan" not in (out / "diagnostics.csv").read_text()
        assert "RuntimeWarning" not in result.stderr
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_initial_state_past_a_threshold_stops_before_the_first_step(self, tmp_path, monkeypatch):
        # u0 is classified from its t = 0 record: hs = inf under the H^100
        # weight stops the run at t = 0, with no step and one diagnostics row
        steps = []
        monkeypatch.setattr(evolve, "_stepper", lambda c: lambda h, dt: steps.append(dt))
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(
            out, model={"preset": "normalized"}, grid=32, t_end=0.1, s_exponent=100,
            initial_data={"profile": "random", "max_mode": 10, "decay_exponent": 2.0},
        ))
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 2 and steps == []
        run = json.loads((out / "run.json").read_text())
        assert run["status"] == "BlowUpSuspected" and run["t_final"] == 0.0
        assert run["blowup"]["trigger"] == "hs" and run["blowup"]["t"] == 0.0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        assert len(rows) == 1 and float(rows[0].split(",")[0]) == 0.0


class TestProbeAndConverge:
    def test_semigroup_probe_passes(self, tmp_path):
        out = tmp_path / "probe"
        spec = {
            "probe": "semigroup",
            "grid": 256,
            "a": {"profile": "sine", "amplitude": 1.0, "mode": 1},
            "w0": {"profile": "random", "max_mode": 2, "decay_exponent": 1.0},
            "t_end": 0.3,
            "out_dir": str(out),
        }
        assert probe_command(spec, quiet=True) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["details"]["omega"] == pytest.approx(math.pi, rel=1e-9)

    def test_failing_probe_exits_3(self, tmp_path):
        out = tmp_path / "probe"
        spec = {
            "probe": "semigroup",
            "grid": 128,
            "a": {"profile": "constant", "value": 1.0},
            "w0": {"profile": "random", "max_mode": 4, "decay_exponent": 1.0},
            "t_end": 0.2,
            "tolerance": -0.5,  # ratio <= 0.5 is impossible: forced failure
            "out_dir": str(out),
        }
        assert probe_command(spec, quiet=True) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False

    def test_dispersion_probe_via_cli(self, tmp_path):
        out = tmp_path / "disp"
        spec = {"probe": "dispersion", "mode": 1, "delta": 0.1, "out_dir": str(out)}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        result = run_cli(["probe", "--config", str(path), "--quiet"])
        assert result.exit_code == 0

    def test_continuous_dependence_at_negative_s(self, tmp_path):
        # s + 0.51 < 0 would be a negative decay for the perturbation direction
        out = tmp_path / "dep"
        spec = {"probe": "continuous_dependence", "s_exponent": -1.0, "t_end": 0.05,
                "out_dir": str(out)}
        path = write_config(tmp_path, spec, "spec.json")
        result = run_cli(["probe", "--config", str(path), "--quiet"])
        assert result.exit_code == 0
        assert json.loads((out / "report.json").read_text())["passed"] is True

    def test_continuous_dependence_with_overflowing_norm(self, tmp_path):
        spec = {"probe": "continuous_dependence", "s_exponent": 100, "t_end": 0.05,
                "out_dir": str(tmp_path / "dep")}
        path = write_config(tmp_path, spec, "spec.json")
        result = run_cli(["probe", "--config", str(path), "--quiet"])
        assert result.exit_code == 1
        assert "InvalidProbeInput" in result.output

    @pytest.mark.parametrize("spec, error, message", [
        # a window or t_end within the landing tolerance fails before its
        # 50 or 10 sample times are found to merge
        ({"probe": "dispersion", "window": 1e-14}, "InvalidProbeInput", "landing tolerance"),
        ({"probe": "continuous_dependence", "t_end": 1e-300}, "InvalidProbeInput",
         "landing tolerance"),
        ({"probe": "mollified_data", "n_sequence": [1000000000]}, "InvalidProbeInput", "65536"),
        ({"probe": "continuous_dependence", "t_end": -1}, "InvalidProbeInput",
         "t_end: must exceed the landing tolerance"),
        ({"probe": "mollified_data", "t_end": -0.5}, "InvalidProbeInput",
         "t_end: must exceed the landing tolerance"),
        # the preset's coefficients overflow; that was a ValueError traceback
        ({"probe": "dispersion", "eps": 1e300}, "InvalidRegime", "gamma1: must be finite"),
        ({"probe": "dispersion", "delta": 1e300}, "InvalidRegime", "mu: must be finite"),
        # sup|a| reads nan, or ||w0|| inf; that was ProbeUnresolved after a step
        ({"probe": "semigroup", "grid": 16, "a": {"coefficients": [[1, 1e308, 0], [2, 0, 1e308], [3, 1e308, 0]]}},
         "InvalidProbeInput", "a: sup|a| = nan"),
        ({"probe": "semigroup", "w0": {"coefficients": [[1, 1e160, 0]]}}, "InvalidProbeInput",
         "w0: its L2 norm inf"),
    ], ids=["dispersion", "continuous_dependence", "mollified_data",
            "continuous_dependence-negative-t_end", "mollified_data-negative-t_end",
            "dispersion-overflowing-eps", "dispersion-overflowing-delta",
            "semigroup-overflowing-a", "semigroup-overflowing-w0"])
    def test_degenerate_probe_inputs_fail_cleanly(self, tmp_path, spec, error, message):
        path = write_config(tmp_path, dict(spec, out_dir=str(tmp_path / "out")), "spec.json")
        result = run_cli(["probe", "--config", str(path), "--quiet"])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {error}: ") and result.output.count("\n") == 1
        assert message in result.output
        assert isinstance(result.exception, SystemExit)  # handled, no traceback

    def test_probe_report_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            spec = {
                "probe": "commutator", "t_exp": 1.0, "r_exp": 2.0,
                "samples": 10, "seed": 4, "grid": 64, "out_dir": str(out),
            }
            assert probe_command(spec, quiet=True) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command", ["probe", "converge", "sweep"])
    def test_commands_print_one_line_each_without_quiet(self, tmp_path, command):
        out = tmp_path / "out"
        spec, lines = {
            "probe": ({"probe": "dispersion", "mode": 1, "delta": 0.1},
                      [rf"probe dispersion: pass \(max=0\.\d+\) -> {re.escape(str(out))}"]),
            "converge": ({"u0": {"profile": "constant", "value": 0.5}, "t_end": 0.05,
                          "grids": [16, 32, 64], "dts": [0.01, 0.005, 0.0025]},
                         [rf"convergence: pass \(order=None\) -> {re.escape(str(out))}"]),
            "sweep": ({"base": minimal_config(out, grid=32, t_end=0.05), "vary": {"seed": [0, 1]}},
                      [r"case 000 \{'seed': 0\} -> exit 0", r"case 001 \{'seed': 1\} -> exit 0"]),
        }[command]
        path = write_config(tmp_path, dict(spec, out_dir=str(out)), "spec.json")
        result = run_cli([command, "--config", str(path)])
        assert result.exit_code == 0 and result.stderr == ""
        printed = result.output.splitlines()
        assert len(printed) == len(lines)
        for line, pattern in zip(printed, lines):
            assert re.fullmatch(pattern, line), line

    def test_unknown_probe(self, tmp_path):
        with pytest.raises(ConfigInvalid):
            probe_command({"probe": "spectre"}, quiet=True)

    def test_converge_command(self, tmp_path):
        out = tmp_path / "conv"
        spec = {
            "u0": {"profile": "cosine", "amplitude": 0.05, "mode": 1},
            "t_end": 0.5,
            "grids": [32, 64, 128],
            "dts": [0.005, 0.0025, 0.00125],
            "out_dir": str(out),
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        result = run_cli(["converge", "--config", str(path), "--quiet"])
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert 3.8 <= report["details"]["temporal_order"] <= 4.2


class TestSweepAndOverrides:
    def test_sweep_cases(self, tmp_path):
        out = tmp_path / "sweep"
        spec = {
            "base": minimal_config(out, t_end=0.2),
            "vary": {"model.eps": [0.1, 0.2], "seed": [0, 1]},
            "out_dir": str(out),
        }
        assert sweep_command(spec, quiet=True) == 0
        summary = json.loads((out / "sweep.json").read_text())
        assert len(summary["cases"]) == 4
        for case in summary["cases"]:
            assert case["exit_code"] == 0
        assert (out / "case_000" / "diagnostics.csv").is_file()

    def test_sweep_case_whose_snapshots_write_one_file_runs_nothing(self, tmp_path):
        out = tmp_path / "sweep"
        spec = {
            "base": minimal_config(out, t_end=2.0),
            "vary": {"snapshot_times": [[0.5, 1.5], [1.5, 1.500000000003]]},
            "out_dir": str(out),
        }
        with pytest.raises(ConfigInvalid, match=r"^case 001 .*: ConfigInvalid: snapshot_times: "
                                                r"1\.5 and 1\.500000000003 both write snapshot_1\.5\.csv$"):
            sweep_command(spec, quiet=True)
        assert not out.exists()

    def test_vary_path_through_a_number_runs_nothing(self, tmp_path):
        out = tmp_path / "sweep"
        spec = {"base": minimal_config(out), "vary": {"grid.n": [64]}, "out_dir": str(out)}
        with pytest.raises(ConfigInvalid, match=r"^case 000 .*: ConfigInvalid: vary: path 'grid\.n' "
                                                r"does not address an object$"):
            sweep_command(spec, quiet=True)
        assert not out.exists()

    def test_sweep_via_cli(self, tmp_path):
        out = tmp_path / "sweep_cli"
        spec = {
            "base": minimal_config(out, t_end=0.2),
            "vary": {"model.eps": [0.1, 0.3]},
            "out_dir": str(out),
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        result = run_cli(["sweep", "--config", str(path), "--quiet"])
        assert result.exit_code == 0
        assert (out / "sweep.json").is_file()
        assert (out / "case_001" / "run.json").is_file()

    def test_cli_overrides(self, tmp_path):
        cfg = minimal_config(tmp_path / "ignored", t_end=0.2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "cli_out"
        result = run_cli(
            ["run", "--config", str(path), "--out", str(out), "--grid", "64", "--seed", "3", "--quiet"],
        )
        assert result.exit_code == 0
        info = json.loads((out / "run.json").read_text())
        assert info["config"]["grid"] == 64
        assert info["config"]["seed"] == 3

    def test_cli_error_exit_1(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid": 128}))
        result = run_cli(["run", "--config", str(path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("args, flag", [
        (["run"], "--config"),
        (["run", "--config", "c.json", "--seed", "abc"], "--seed"),
        (["bogus", "--config", "c.json"], "bogus"),
    ], ids=["missing-config", "non-integer-seed", "unknown-command"])
    def test_malformed_command_line_exits_1(self, args, flag):
        # exit 2 means BlowUpSuspected; a usage error is a named error like a bad spec
        result = run_cli(args)
        assert result.exit_code == 1 and result.output == result.stderr
        assert result.stderr.startswith("error: ConfigInvalid: ") and result.stderr.count("\n") == 1
        assert flag in result.stderr

    @pytest.mark.parametrize("command, spec, error", [
        ("run", {"initial_data": {"samples_file": "empty.txt"}}, "ConfigInvalid"),
        ("run", {"initial_data": {"profile": "cosine", "amplitude": 1e308, "mode": 1}}, "InvalidField"),
        ("probe", {"probe": "commutator", "t_exp": 1e308, "r_exp": 1e308}, "InvalidField"),
        # L = Lam^-2 (alpha2 d^3/dx^3) reads inf * 0; the run ended in "about nan steps"
        ("run", {"model": {"preset": "bbm", "beta": -1e308}}, "InvalidField"),
        # the step rule underflows to dt = 0; that was a ZeroDivisionError traceback
        ("run", {"cfl": 5e-324}, "InvalidControls"),
    ], ids=["empty-samples-file", "overflowing-cosine", "overflowing-commutator-exponents",
            "overflowing-step-rule", "underflowing-step-rule"])
    def test_no_warning_before_the_error_line(self, tmp_path, monkeypatch, command, spec, error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.txt").write_text("")
        if command == "run":
            spec = minimal_config(tmp_path / "out", **spec)
        path = write_config(tmp_path, dict(spec, grid=16, out_dir=str(tmp_path / "out")))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_cli([command, "--config", str(path)])
        assert not caught, [str(w.message) for w in caught]
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {error}: ") and result.stderr.count("\n") == 1

    def test_env_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LASW_OUT_ROOT", str(tmp_path))
        cfg = RunConfig.from_dict(minimal_config("rel_out", t_end=0.2))
        assert run_command(cfg, quiet=True) == 0
        assert (tmp_path / "rel_out" / "diagnostics.csv").is_file()

    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        cfg = RunConfig.from_dict(minimal_config(blocker / "out", t_end=0.2))
        with pytest.raises(IoError):
            run_command(cfg, quiet=True)


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("call", [
    "import runpy; sys.argv = ['lasw', '--help']; runpy.run_module('lasw.cli', run_name='__main__')",
    "from lasw.cli import main; main(['run', '--help'])",
], ids=["python-m-lasw.cli", "main"])
def test_the_cli_runs_without_click(call, tmp_path):
    # a None entry in sys.modules blocks click: importing it raises ImportError
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", f"import sys; sys.modules['click'] = None; {call}"],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr[-2000:]
    assert "--help" in result.stdout


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
