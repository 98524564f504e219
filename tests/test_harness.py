"""Experiment harness: config plumbing, grid runs, summaries, CLI."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from signshuffle import ConfigError, apply_scale, build_config, grid_cells
from signshuffle import harness as hz


def tiny_overrides(out_dir, **kw):
    base = dict(n=8, d=3, epochs=2, algorithms=("signrr", "signrvr"),
                lr_grid=(1e-2, 1e-3), beta_grid=(0.5,), seeds=(1, 2),
                lemma_checks=False, out_dir=str(out_dir))
    base.update(kw)
    return base


class TestConfig:
    def test_preset_names(self):
        for name in hz.PRESET_NAMES:
            hz.preset(name)
        with pytest.raises(ConfigError):
            hz.preset("rosenbrok")

    def test_apply_scale_rounds_and_floors(self):
        c = hz.preset("rosenbrock_central")
        scaled = apply_scale(c, 0.2)
        assert (scaled.n, scaled.epochs) == (200, 30)
        floor = apply_scale(c, 1e-9)
        assert (floor.n, floor.epochs) == (1, 1)
        with pytest.raises(ConfigError):
            apply_scale(c, 0.0)
        with pytest.raises(ConfigError):
            apply_scale(c, math.nan)

    def test_precedence_file_over_preset_flags_over_file(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"epochs": 7, "d0": 0.5}))
        config = build_config("rosenbrock_central", str(cfg_file),
                              {"epochs": 9, "out_dir": str(tmp_path)}, None)
        assert config.epochs == 9          # flag wins
        assert config.d0 == 0.5            # file beats preset
        assert config.gamma_kind == "inverse_sqrt"  # preset survives

    def test_scale_applies_last(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"n": 50, "epochs": 10}))
        config = build_config(None, str(cfg_file), {}, 0.5)
        assert (config.n, config.epochs) == (25, 5)

    def test_unknown_config_key(self, tmp_path):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(ConfigError, match="learning_rate"):
            build_config(None, str(cfg_file), {}, None)

    def test_validation_collects_all_errors(self):
        with pytest.raises(ConfigError) as err:
            build_config(None, None,
                         {"algorithms": ("warp",), "workers": 0, "d0": -1.0}, None)
        msg = str(err.value)
        assert "algorithms" in msg and "workers" in msg and "d0" in msg

    def test_x0_vector_must_match_dimension(self, tmp_path):
        with pytest.raises(ConfigError, match="x0"):
            build_config(None, None, tiny_overrides(tmp_path, x0=(0.1, 0.2)), None)

    def test_single_worker_distributed_is_allowed(self):
        # The one-worker setup is a supported exact reduction, not an error.
        config = build_config(None, None,
                              {"algorithms": ("dist_signrvr",), "workers": 1}, None)
        assert config.workers == 1


# One wrong-typed JSON value for each annotation kind of ExperimentConfig.
WRONG_TYPES = [
    ("problem", 5),
    ("epochs", "2"),
    ("epochs", True),
    ("u_max", "10"),
    ("lemma_checks", "yes"),
    ("csv_path", 3),
    ("problem_seed", 1.5),
    ("algorithms", "signsgd"),
    ("lr_grid", [0.1, "x"]),
    ("seeds", 3),
    ("x0", "0"),
    ("x0", [0.0, False, 0.0]),
]


class TestConfigTypes:
    def test_every_annotation_kind_is_covered(self):
        assert ({hz._FIELD_KINDS[name] for name, _ in WRONG_TYPES}
                == set(hz._FIELD_KINDS.values()))

    @pytest.mark.parametrize("name,value", WRONG_TYPES)
    def test_python_entry_points(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name}: expected"):
            hz.validate_config(hz.config_from_dict({name: value}))
        with pytest.raises(ConfigError, match=f"^{name}: expected"):
            build_config(overrides={name: value})

    @pytest.mark.parametrize("name,value", WRONG_TYPES)
    def test_run_config_file_is_exit_2(self, tmp_path, capsys, name, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({name: value}))
        assert hz.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {name}: expected")

    @pytest.mark.parametrize("name,value", WRONG_TYPES)
    def test_check_summary_is_exit_2(self, tmp_path, capsys, name, value):
        trace = tmp_path / "signrr_1_lr1e-02.csv"
        trace.write_text("t\n")
        (tmp_path / "summary.json").write_text(
            json.dumps({"config": {name: value}, "cells": []}))
        assert hz.run_check(str(trace)) == 2
        assert capsys.readouterr().err.startswith(f"config error: {name}: expected")

    def test_ints_pass_as_floats(self, tmp_path):
        config = build_config(None, None, dict(u_max=10, d0=2, lr_grid=[1, 0.5],
                                               x0=[0, 1, 2], d=3), None)
        assert (config.u_max, config.d0, config.lr_grid) == (10, 2, (1, 0.5))
        assert config.x0 == (0.0, 1.0, 2.0)


class TestFlagParsing:
    def test_kinds(self):
        assert hz._parse_flag("epochs", "12") == 12
        assert hz._parse_flag("gamma_kind", "constant") == "constant"
        assert hz._parse_flag("lemma_checks", "no") is False
        assert hz._parse_flag("lemma_checks", "TRUE") is True
        assert hz._parse_flag("seeds", "3,4") == (3, 4)
        assert hz._parse_flag("lr_grid", "1e-2,1e-4") == (1e-2, 1e-4)
        assert hz._parse_flag("x0", "1.5") == 1.5
        assert hz._parse_flag("x0", "0.1,0.2,0.3") == (0.1, 0.2, 0.3)
        assert hz._parse_flag("problem_seed", "7") == 7

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            hz._parse_flag("epochs", "twelve")
        with pytest.raises(ConfigError):
            hz._parse_flag("lemma_checks", "sometimes")


class TestGrid:
    def test_beta_expansion_only_for_momentum_methods(self, tmp_path):
        config = build_config(None, None, tiny_overrides(
            tmp_path, algorithms=("signrr", "signrvm"), beta_grid=(0.3, 0.6)), None)
        cells = grid_cells(config)
        rr = [c for c in cells if c.algo == "signrr"]
        vm = [c for c in cells if c.algo == "signrvm"]
        assert len(rr) == 2 * 2 and all(c.beta is None for c in rr)
        assert len(vm) == 2 * 2 * 2 and all(c.beta in (0.3, 0.6) for c in vm)

    def test_cell_filenames(self, tmp_path):
        config = build_config(None, None, tiny_overrides(
            tmp_path, algorithms=("signrr", "signrvm")), None)
        names = {hz.cell_filename(c) for c in grid_cells(config)}
        assert "signrr_1_lr1e-02.csv" in names
        assert "signrvm_2_lr1e-03_b0.5.csv" in names

    def test_select_best_prefers_smaller_lr_on_ties(self):
        rows = [
            {"algo": "signrr", "seed": 1, "lr": 1e-2, "beta": None,
             "final": 1.0, "diverged": False},
            {"algo": "signrr", "seed": 1, "lr": 1e-3, "beta": None,
             "final": 1.0, "diverged": False},
        ]
        best = hz.select_best(rows)
        assert best[("signrr", 1)]["lr"] == 1e-3

    def test_select_best_skips_divergence_when_possible(self):
        rows = [
            {"algo": "signrr", "seed": 1, "lr": 1e-1, "beta": None,
             "final": float("inf"), "diverged": True},
            {"algo": "signrr", "seed": 1, "lr": 1e-3, "beta": None,
             "final": 2.0, "diverged": False},
        ]
        assert hz.select_best(rows)[("signrr", 1)]["final"] == 2.0


class TestRunExperiment:
    def test_summary_and_files(self, tmp_path):
        config = build_config(None, None, tiny_overrides(tmp_path / "runs"), None)
        summary = hz.run_experiment(config)
        assert sorted(summary["best"]) == [
            "signrr:1", "signrr:2", "signrvr:1", "signrvr:2"]
        stored = json.loads((tmp_path / "runs" / "summary.json").read_text())
        assert stored["best"] == summary["best"]
        for row in summary["cells"]:
            assert (tmp_path / "runs" / row["csv"]).exists()
            assert not row["diverged"] and row["error"] == ""

    def test_reruns_are_byte_identical(self, tmp_path):
        config_a = build_config(None, None, tiny_overrides(tmp_path / "a"), None)
        config_b = build_config(None, None, tiny_overrides(tmp_path / "b"), None)
        hz.run_experiment(config_a)
        hz.run_experiment(config_b)
        for csv_a in sorted((tmp_path / "a").glob("*.csv")):
            csv_b = tmp_path / "b" / csv_a.name
            assert csv_a.read_bytes() == csv_b.read_bytes()
        sum_a = json.loads((tmp_path / "a" / "summary.json").read_text())
        sum_b = json.loads((tmp_path / "b" / "summary.json").read_text())
        sum_a["config"].pop("out_dir"), sum_b["config"].pop("out_dir")
        assert sum_a == sum_b

    def test_momentum_beta_fills_baseline_default(self, tmp_path):
        # Adam and signum run even when the grid carries no beta for them.
        config = build_config(None, None, tiny_overrides(
            tmp_path, algorithms=("adam",), beta_grid=(0.9,)), None)
        summary = hz.run_experiment(config)
        assert all(not row["diverged"] for row in summary["cells"])

    def test_metric_failure_is_per_cell_divergence(self, tmp_path):
        # Starting at the exact minimizer drives the objective to zero, which
        # the log10 final metric rejects; the sweep keeps going and marks the
        # cells instead of crashing.
        config = build_config(None, None, tiny_overrides(
            tmp_path, x0=(1.0, 1.0, 1.0), summary_metric="f"), None)
        summary = hz.run_experiment(config)
        for row in summary["cells"]:
            assert row["diverged"] and row["final"] == math.inf
            assert "metric failed" in row["error"]

    def test_diverged_cell_writes_header_only_trace(self, tmp_path, capsys):
        config = build_config(None, None, tiny_overrides(
            tmp_path, n=20, d=5, epochs=3, algorithms=("sgd",), lr_grid=(0.1,),
            seeds=(1,)), None)
        row = hz.run_experiment(config)["cells"][0]
        assert row["diverged"] and row["error"] == "diverged: l1_norm: NaN entry"
        trace = tmp_path / row["csv"]
        assert trace.read_text() == hz.metrics.CSV_HEADER + "\n"
        assert hz.run_check(str(trace)) == 0
        assert "trajectory diverged" in capsys.readouterr().out

    def test_unexpected_failure_cleans_output_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "runs"
        config = build_config(None, None, tiny_overrides(out), None)
        real = hz.run_cell
        calls = {"n": 0}

        def explode(cfg, cells, data=None):
            # The second (algorithm, seed) group fails after the first wrote
            # its traces.
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("disk on fire")
            return real(cfg, cells, data)

        monkeypatch.setattr(hz, "run_cell", explode)
        with pytest.raises(RuntimeError):
            hz.run_experiment(config)
        assert not (out / "summary.json").exists()
        assert not list(out.glob("*.csv"))

    def test_distributed_cells_account_bytes(self, tmp_path):
        config = build_config(None, None, tiny_overrides(
            tmp_path, algorithms=("dist_signrvr", "signsgd_mv"), workers=3,
            seeds=(1,), lr_grid=(1e-2,), summary_metric="f",
            smoothing_window=3), None)
        summary = hz.run_experiment(config)
        by_algo = {row["algo"]: row for row in summary["cells"]}
        avg = by_algo["dist_signrvr"]
        n_iter = 8 * 2  # per-worker components times epochs
        assert avg["bytes_up"] == n_iter * 3 * 3 * 1
        assert avg["bytes_down"] == n_iter * 3 * 3 * 64
        vote = by_algo["signsgd_mv"]
        assert vote["bytes_down"] == n_iter * 3 * 3 * 1

    def test_lemma_checks_section(self, tmp_path):
        config = build_config(None, None, tiny_overrides(
            tmp_path, algorithms=("signrr", "signrvr"), lemma_checks=True,
            smoothness_samples=60), None)
        summary = hz.run_experiment(config)
        assert summary["lemma_violations"] == 0
        joined = "\n".join(summary["lemmas"])
        assert "signrvr vr-deviation" in joined
        assert "signed-descent" in joined
        assert "sign-markov[student-t3]" in joined


class TestCheckTrace:
    def fresh_run(self, tmp_path):
        out = tmp_path / "runs"
        config = build_config(None, None, tiny_overrides(out), None)
        hz.run_experiment(config)
        return out

    def test_clean_trace_passes(self, tmp_path, capsys):
        out = self.fresh_run(tmp_path)
        rc = hz.run_check(str(out / "signrr_1_lr1e-02.csv"))
        assert rc == 0
        assert "matches stored trace" in capsys.readouterr().out

    def test_doctored_trace_fails(self, tmp_path):
        out = self.fresh_run(tmp_path)
        target = out / "signrvr_2_lr1e-03.csv"
        data = target.read_bytes()
        target.write_bytes(data[:-2] + b"7\n")
        assert hz.run_check(str(target)) == 3

    def test_missing_inputs(self, tmp_path):
        out = self.fresh_run(tmp_path)
        assert hz.run_check(str(out / "absent.csv")) == 2
        (out / "summary.json").unlink()
        assert hz.run_check(str(out / "signrr_1_lr1e-02.csv")) == 2

    def check_with_summary(self, tmp_path, capsys, doctor):
        """Exit code and stderr of a check after ``doctor`` rewrites summary.json."""
        out = self.fresh_run(tmp_path)
        summary = out / "summary.json"
        doctor(summary)
        capsys.readouterr()
        rc = hz.run_check(str(out / "signrr_1_lr1e-02.csv"))
        return rc, capsys.readouterr().err

    def test_summary_not_json(self, tmp_path, capsys):
        rc, err = self.check_with_summary(
            tmp_path, capsys, lambda p: p.write_text("{truncated"))
        assert rc == 2 and err.startswith("config error:") and "not valid JSON" in err

    def test_summary_not_an_object(self, tmp_path, capsys):
        rc, err = self.check_with_summary(
            tmp_path, capsys, lambda p: p.write_text("[1, 2]"))
        assert rc == 2 and err.startswith("config error:") and "object" in err

    @staticmethod
    def without(key):
        def doctor(path):
            data = json.loads(path.read_text())
            del data[key]
            path.write_text(json.dumps(data))
        return doctor

    def test_summary_without_config(self, tmp_path, capsys):
        rc, err = self.check_with_summary(tmp_path, capsys, self.without("config"))
        assert rc == 2 and err.startswith("config error:") and "'config'" in err

    def test_summary_without_cells(self, tmp_path, capsys):
        rc, err = self.check_with_summary(tmp_path, capsys, self.without("cells"))
        assert rc == 2 and err.startswith("config error:") and "'cells'" in err

    @pytest.mark.parametrize("key, value", [("seed", "1"), ("seed", 1.5), ("lr", "fast"),
                                            ("lr", True), ("beta", "high")])
    def test_cell_row_with_wrong_type(self, tmp_path, capsys, key, value):
        def doctor(path):
            data = json.loads(path.read_text())
            for row in data["cells"]:
                row[key] = value
            path.write_text(json.dumps(data))

        rc, err = self.check_with_summary(tmp_path, capsys, doctor)
        assert rc == 2 and err.startswith("config error:") and f"{key} {value!r}" in err

    def test_unreadable_logistic_rows_fail_check_with_exit_2(self, logistic_csv, tmp_path,
                                                              capsys):
        csv = tmp_path / "rows.csv"
        csv.write_bytes(Path(logistic_csv).read_bytes())
        config = logistic_config("logistic_central", csv, tmp_path / "o",
                                 algorithms=("signsgd",), lr_grid=(1e-2,), seeds=(1,),
                                 epochs=1, lemma_checks=False)
        hz.run_experiment(config)
        csv.write_text("1.0,2.0,0\n1.0,abc,1\n")
        capsys.readouterr()
        assert hz.run_check(str(tmp_path / "o" / "signsgd_1_lr1e-02.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "row 1" in err and "abc" in err

    @pytest.mark.parametrize("key", ["csv", "algo", "seed", "lr", "beta"])
    def test_cell_row_without_key(self, tmp_path, capsys, key):
        def doctor(path):
            data = json.loads(path.read_text())
            for row in data["cells"]:
                del row[key]
            path.write_text(json.dumps(data))

        rc, err = self.check_with_summary(tmp_path, capsys, doctor)
        assert rc == 2 and err.startswith("config error:") and f"lacks {key}" in err


class TestCli:
    def test_presets_listing(self, capsys):
        assert hz.main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in hz.PRESET_NAMES:
            assert name in out

    def test_run_and_check_round_trip(self, tmp_path, capsys):
        rc = hz.main(["run", "--preset", "rosenbrock_central", "--scale", "0.01",
                      "--out", str(tmp_path / "o"),
                      "--algorithms", "signrr", "--lr-grid", "1e-2",
                      "--seeds", "1", "--lemma-checks", "no"])
        assert rc == 0
        csvs = list((tmp_path / "o").glob("*.csv"))
        assert csvs and (tmp_path / "o" / "summary.json").exists()
        assert hz.main(["check", "--trace", str(csvs[0])]) == 0

    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(tiny_overrides(tmp_path / "o",
                                                 algorithms=["signrr"], seeds=[1])))
        assert hz.main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "o" / "summary.json").exists()

    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        assert hz.main(["run", "--preset", "no_such"]) == 2
        cfg = tmp_path / "c.json"
        cfg.write_text("{bad json")
        assert hz.main(["run", "--config", str(cfg)]) == 2

    def test_uneven_logistic_rows_are_exit_2(self, tmp_path, capsys):
        from conftest import write_logistic_csv

        csv = write_logistic_csv(tmp_path / "rows605.csv", rows=605)
        rc = hz.main(["run", "--preset", "logistic_dist", "--csv-path", str(csv),
                      "--workers", "10", "--epochs", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "605 rows" in err and "10 workers" in err
        assert not list((tmp_path / "o").glob("*.csv"))

    @pytest.mark.parametrize("rows", ["1.0,2.0,0\n1.0,abc,1\n", "1.0,2.0,0\n1.0,2.0,x\n",
                                      "1.0,2.0,0\n1.0,2.0,inf\n"])
    def test_unreadable_logistic_rows_are_exit_2(self, tmp_path, capsys, rows):
        csv = tmp_path / "bad.csv"
        csv.write_text(rows)
        rc = hz.main(["run", "--preset", "logistic_central", "--csv-path", str(csv),
                      "--epochs", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "row 1" in err
        assert not list((tmp_path / "o").glob("*.csv"))

    def test_every_field_has_a_flag(self):
        # Each ExperimentConfig field is a --flag whose text parses back to
        # the value, and the value survives a JSON round trip of the config.
        parser = hz._cli()
        values = dataclasses.asdict(hz.ExperimentConfig())
        values.update(csv_path="data.csv", problem_seed=7, x0=(0.5, -1.0))
        for name, value in values.items():
            if isinstance(value, bool):
                raw = "yes" if value else "no"
            elif isinstance(value, tuple):
                raw = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
            else:
                raw = repr(value) if isinstance(value, float) else str(value)
            flag = "--out" if name == "out_dir" else f"--{name.replace('_', '-')}"
            args = parser.parse_args(["run", flag, raw])
            assert getattr(args, f"opt_{name}") == raw
            assert hz._parse_flag(name, raw) == value
            loaded = hz.config_from_dict(json.loads(json.dumps({name: value})))
            assert getattr(loaded, name) == value
        assert hz._parse_flag("csv_path", "none") is None
        assert hz._parse_flag("x0", "1.5") == 1.5


def test_final_metric_matches_trace(tmp_path):
    # The stored per-cell final must equal recomputing the smoothed series
    # from the trace the cell wrote.
    from signshuffle import process_series, read_trace_csv

    config = build_config(None, None, tiny_overrides(tmp_path), None)
    summary = hz.run_experiment(config)
    row = summary["cells"][0]
    recs = read_trace_csv(tmp_path / row["csv"])
    series = [r.grad_l1 for r in recs]
    out = process_series(series, config.smoothing_window, "log10",
                         smooth_after_transform=config.smooth_after_log)
    assert row["final"] == out.smoothed[-1]


def _outputs(out_dir):
    """Trace bytes by file name, plus the summary sections that must be stable."""
    out_dir = Path(out_dir)
    traces = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
    summary = json.loads((out_dir / "summary.json").read_text())
    return traces, {k: summary[k] for k in ("cells", "best", "lemmas", "lemma_violations")}


def logistic_config(preset, csv_path, out_dir, **kw):
    overrides = dict(csv_path=str(csv_path), epochs=2, lr_grid=(1e-1, 1e-2),
                     beta_grid=(0.5,), seeds=(1, 2), smoothness_samples=30,
                     out_dir=str(out_dir))
    overrides.update(kw)
    return build_config(preset, None, overrides, None)


@pytest.mark.parametrize("preset", ["rosenbrock_central", "rosenbrock_dist"])
def test_process_pool_matches_serial_rosenbrock_run(preset, tmp_path):
    # jobs > 1 maps the (algorithm, seed) groups over worker processes.
    def config(out, jobs):
        return build_config(preset, None, dict(n=10, epochs=2, seeds=(1, 2), jobs=jobs,
                                               lr_grid=(1e-1, 1e-3), beta_grid=(0.5, 0.9),
                                               smoothness_samples=20,
                                               out_dir=str(tmp_path / out)), None)

    serial, pooled = config("serial", 1), config("pooled", 2)
    hz.run_experiment(serial)
    hz.run_experiment(pooled)
    assert _outputs(serial.out_dir) == _outputs(pooled.out_dir)


class TestLogisticPresets:
    # Lemma violations are not asserted: the sampled smoothness estimate can
    # undershoot on logistic data (see ROADMAP item 4).

    def test_logistic_central_sweep(self, logistic_csv, tmp_path):
        config = logistic_config("logistic_central", logistic_csv, tmp_path)
        summary = hz.run_experiment(config)
        assert len(summary["cells"]) == len(grid_cells(config))
        assert sorted({row["algo"] for row in summary["cells"]}) == sorted(hz.CENTRAL_ALGOS)
        for row in summary["cells"]:
            assert (tmp_path / row["csv"]).exists()
            assert row["bytes_up"] == row["bytes_down"] == 0
        joined = "\n".join(summary["lemmas"])
        assert "signrvm vr-deviation" in joined and "signrr signed-descent" in joined

    def test_logistic_dist_sweep(self, logistic_csv, tmp_path):
        config = logistic_config("logistic_dist", logistic_csv, tmp_path)
        summary = hz.run_experiment(config)
        assert config.workers == 10
        rounds = 6 * 2  # 60 rows over 10 workers, two epochs
        for row in summary["cells"]:
            assert not row["diverged"]
            up = rounds * 10 * 12
            assert row["bytes_up"] == up
            assert row["bytes_down"] == (64 * up if row["algo"].startswith("dist_") else up)
        joined = "\n".join(summary["lemmas"])
        assert "dist_signrvr vr-deviation" in joined

    def test_rewritten_csv_is_read_afresh(self, tmp_path):
        # Every sweep reads its CSV when it starts: a file rewritten in place
        # between two sweeps of one process gives what a fresh file gives.
        from conftest import write_logistic_csv

        def sweep(csv, out):
            hz.run_experiment(logistic_config("logistic_central", csv, tmp_path / out,
                                              algorithms=("signsgd",), lr_grid=(1e-2,),
                                              epochs=1, seeds=(1,)))
            return _outputs(tmp_path / out)

        csv = write_logistic_csv(tmp_path / "rows.csv", seed=0)
        first = sweep(csv, "first")
        write_logistic_csv(csv, seed=1)
        rewritten = sweep(csv, "rewritten")
        assert rewritten == sweep(write_logistic_csv(tmp_path / "fresh.csv", seed=1), "fresh")
        assert rewritten != first
        assert hz.run_check(str(tmp_path / "rewritten" / "signsgd_1_lr1e-02.csv")) == 0

    def test_process_pool_matches_serial_run(self, logistic_csv, tmp_path):
        for preset in ("logistic_central", "logistic_dist"):
            serial = logistic_config(preset, logistic_csv, tmp_path / preset / "serial")
            pooled = logistic_config(preset, logistic_csv, tmp_path / preset / "pooled",
                                     jobs=2)
            hz.run_experiment(serial)
            hz.run_experiment(pooled)
            assert _outputs(serial.out_dir) == _outputs(pooled.out_dir)
