"""Tiny real sweeps for the benchmark's own tests.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
from signshuffle import build_config, run_experiment  # noqa: E402

SMALL = {"seeds": (3,), "epochs": 2, "lr_grid": (1e-1, 1e-2), "beta_grid": (0.5,),
         "jobs": 1}


def _sweep(tmp_path_factory, preset, **overrides):
    out = tmp_path_factory.mktemp(preset)
    config = build_config(preset_name=preset,
                          overrides=dict(SMALL, out_dir=str(out), **overrides))
    return config, run_experiment(config)


@pytest.fixture(scope="session")
def central(tmp_path_factory):
    return _sweep(tmp_path_factory, "rosenbrock_central", n=12)


@pytest.fixture(scope="session")
def dist(tmp_path_factory):
    return _sweep(tmp_path_factory, "rosenbrock_dist", n=6, workers=3)


@pytest.fixture(scope="session")
def logistic_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "logistic.csv"
    X, y = inputs.logistic_data(7, 30, 4, 3)
    inputs.write_logistic_csv(path, X, y)
    return path, inputs.read_logistic_csv(path)


@pytest.fixture(scope="session", params=["logistic_central", "logistic_dist"])
def logistic(request, tmp_path_factory, logistic_data):
    path, data = logistic_data
    config, summary = _sweep(tmp_path_factory, request.param, csv_path=str(path),
                             batch_size=4, telemetry_stride=3, workers=3,
                             gamma_kind="inverse_sqrt")
    return config, summary, data
