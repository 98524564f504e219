"""Tracer spans, self times, absent layers, and the untraced path's imports."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import tracer
from signshuffle import build_config, harness, run_experiment

BENCH = Path(__file__).resolve().parent.parent


def test_missing_names_are_absent_not_fatal():
    t = tracer.Tracer({"gone.function": ("signshuffle.harness:_no_such_function",),
                       "gone.module": ("signshuffle.no_such_module:f",),
                       "gone.method": ("signshuffle.problems:RosenbrockSum.no_such",),
                       "harness.run_cell": ("signshuffle.harness:run_cell",)})
    original = harness.run_cell
    t.install()
    try:
        assert harness.run_cell is not original
    finally:
        t.uninstall()
    assert harness.run_cell is original
    assert t.absent() == ["gone.function", "gone.module", "gone.method"]


def test_planned_deletions_leave_layers_absent(monkeypatch):
    from signshuffle import distributed
    for name in ("signrr_epoch", "signrvr_epoch", "signrvm_epoch", "baseline_epoch",
                 "dist_signrvr_run", "dist_signrvm_run", "dist_majority_vote_run"):
        monkeypatch.delattr(harness, name)
    monkeypatch.delattr(distributed, "_dist_anchored_run")
    monkeypatch.delattr(distributed, "_WorkerEval")
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent() == ["optimizers.epoch", "distributed.run"]


def test_inherited_methods_are_not_wrapped_twice():
    assert tracer._resolve("signshuffle.problems:RosenbrockSum.component_value")
    assert tracer._resolve("signshuffle.problems:LogisticProblem._check_index") is None


@pytest.fixture(scope="module")
def traced_sweep(tmp_path_factory, central):
    config, _ = central
    config = dataclasses.replace(config, out_dir=str(tmp_path_factory.mktemp("traced")))
    t = tracer.Tracer()
    originals = {name: getattr(harness, name) for name in ("run_cell", "signrr_epoch")}
    t.install()
    try:
        summary = run_experiment(config)
    finally:
        t.uninstall()
    for name, fn in originals.items():
        assert getattr(harness, name) is fn
    return t, summary


def test_spans_cover_layers(traced_sweep):
    t, summary = traced_sweep
    totals = t.totals(0)
    assert totals["harness.run_cell"]["calls"] == len(summary["cells"])
    assert totals["harness.lemma_section"]["calls"] == 1
    assert totals["optimizers.epoch"]["calls"] > 0
    assert totals["distributed.run"]["calls"] == 0
    assert t.absent() == []
    assert 0 < t.parts_hits < t.parts_lookups


def test_self_time_is_span_minus_children(traced_sweep):
    t, _ = traced_sweep
    totals = t.totals(0)
    for layer in totals.values():
        assert layer["self_s"] <= layer["s"] + 1e-12
        assert layer["self_s"] >= -1e-9
    parent = np.frombuffer(t.parent, dtype=np.int64)
    dur = np.frombuffer(t.ends, dtype=float) - np.frombuffer(t.starts, dtype=float)
    top_level = dur[parent < 0].sum()
    assert sum(layer["self_s"] for layer in totals.values()) == pytest.approx(top_level)


def test_same_layer_nesting_counts_once(tmp_path):
    config = build_config(preset_name="rosenbrock_dist",
                          overrides={"n": 4, "workers": 2, "epochs": 1, "seeds": (1,),
                                     "lr_grid": (1e-2,), "beta_grid": (0.5,),
                                     "algorithms": ("dist_signrvr",),
                                     "lemma_checks": False, "out_dir": str(tmp_path)})
    t = tracer.Tracer()
    t.install()
    try:
        run_experiment(config)
    finally:
        t.uninstall()
    # dist_signrvr_run calls _dist_anchored_run: one span, not two.
    assert t.totals(0)["distributed.run"]["calls"] == 1


def _private_signshuffle_names(path):
    tree = ast.parse(path.read_text())
    # The tracer reaches private names; only the traced branch may import it.
    names = [a.name for node in tree.body if isinstance(node, ast.Import)
             for a in node.names if a.name == "tracer"]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("signshuffle"):
            names += [a.name for a in node.names if a.name.startswith("_")]
            names += [p for p in node.module.split(".") if p.startswith("_")]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.startswith("signshuffle.")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "signshuffle" and node.attr.startswith("_")
              and node.attr != "__file__"):
            names.append(node.attr)
    return names


def test_untraced_command_imports_no_private_name():
    for script in ("run.py", "worker.py", "workloads.py", "checks.py", "replay.py",
                   "inputs.py"):
        assert _private_signshuffle_names(BENCH / script) == [], script
