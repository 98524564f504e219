"""The plain-numpy replay agrees with the program and catches a corrupted trace."""

from pathlib import Path

import numpy as np
import pytest

import checks
import replay


def _replay_and_trace(config, summary, algo):
    lr = max(config.lr_grid)
    cell = next(c for c in summary["cells"] if c["algo"] == algo and c["lr"] == lr)
    rows = replay.replay_epoch(algo, seed=cell["seed"], n=config.n, d=config.d,
                               u_max=config.u_max, lr=lr, gamma_kind=config.gamma_kind,
                               d0=config.d0, workers=config.workers)
    return rows, checks.read_trace(Path(config.out_dir) / cell["csv"])


@pytest.mark.parametrize("algo", ["signrr", "signrvr"])
def test_central_replay_matches(central, algo):
    rows, trace = _replay_and_trace(*central, algo)
    assert len(rows) == central[0].n
    assert replay.compare(rows, trace) == []


@pytest.mark.parametrize("algo", ["dist_signrvr", "signsgd_mv"])
def test_distributed_replay_matches(dist, algo):
    rows, trace = _replay_and_trace(*dist, algo)
    assert replay.compare(rows, trace) == []


def test_freeze_rule_is_replayed(central):
    config, summary = central
    cell = next(c for c in summary["cells"]
                if c["algo"] == "signrvr" and c["lr"] == max(config.lr_grid))
    # A threshold the first steps exceed: applied flips to 0 part-way through.
    rows = replay.replay_epoch("signrvr", seed=cell["seed"], n=config.n, d=config.d,
                               u_max=config.u_max, lr=max(config.lr_grid),
                               gamma_kind=config.gamma_kind, d0=0.15)
    assert rows[0, checks.APPLIED] == 1 and (rows[:, checks.APPLIED] == 0).any()


def test_corrupted_trace_fails(central):
    rows, trace = _replay_and_trace(*central, "signrvr")
    flipped = trace.copy()
    flipped[3, checks.APPLIED] = 0.0
    assert replay.compare(rows, flipped)
    nudged = trace.copy()
    nudged[3, checks.F] *= 1.0 + 1e-6
    assert replay.compare(rows, nudged)
    assert replay.compare(rows, np.delete(trace, 2, axis=0))
    assert replay.compare(rows, trace[:5])
