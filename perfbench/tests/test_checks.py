"""Each output check passes on real sweep outputs and fails on a corrupted one."""

import copy
from pathlib import Path

import numpy as np
import pytest

import checks
from checks import APPLIED, DTHR, F, GAMMA, L1, L2


def _spec(config, summary, data=None):
    return checks.spec_from_config(summary["config"], data)


def _trace(config, summary, algo):
    cell = next(c for c in summary["cells"] if c["algo"] == algo)
    return cell, checks.read_trace(Path(config.out_dir) / cell["csv"])


def test_clean_sweeps_pass(central, dist):
    for config, summary in (central, dist):
        errors, _, stats = checks.verify_sweep(summary, config.out_dir)
        assert errors == []
        assert stats.cells == len(summary["cells"])


def test_clean_logistic_sweeps_pass(logistic):
    config, summary, data = logistic
    errors, _, _ = checks.verify_sweep(summary, config.out_dir, data)
    assert errors == []


def test_first_row_rosenbrock_closed_form(central):
    config, summary = central
    spec = _spec(config, summary)
    _, rows = _trace(config, summary, "signrr")
    assert checks.check_first_row(rows, spec, "signrr") == []
    for col in (F, L1, L2):
        bad = rows.copy()
        bad[0, col] *= 1.0 + 1e-9
        assert checks.check_first_row(bad, spec, "signrr")


def test_first_row_logistic_gradient_from_data(logistic):
    config, summary, data = logistic
    spec = _spec(config, summary, data)
    algo = summary["cells"][0]["algo"]
    _, rows = _trace(config, summary, algo)
    assert checks.check_first_row(rows, spec, algo, data) == []
    bad = rows.copy()
    bad[0, F] += 1e-6
    assert checks.check_first_row(bad, spec, algo, data)
    if algo not in checks.DISTRIBUTED:
        bad = rows.copy()
        bad[0, L2] *= 1.0 + 1e-6
        assert checks.check_first_row(bad, spec, algo, data)


@pytest.mark.parametrize("algo", ["signrr", "signrvr", "signrvm"])
def test_changed_gamma_or_threshold_fails(central, algo):
    config, summary = central
    spec = _spec(config, summary)
    cell, rows = _trace(config, summary, algo)
    assert checks.check_schedule(rows, spec, algo, cell["lr"]) == []
    for col in (GAMMA, DTHR):
        bad = rows.copy()
        bad[5, col] += 1e-15  # a few ulps at most of the checked magnitudes
        assert checks.check_schedule(bad, spec, algo, cell["lr"])


def test_epoch_shift_is_checked(logistic):
    config, summary, data = logistic
    spec = _spec(config, summary, data)
    algo = "signrvm" if "signrvm" in config.algorithms else "dist_signrvm"
    cell, rows = _trace(config, summary, algo)
    assert spec.shifted(algo)
    assert checks.check_schedule(rows, spec, algo, cell["lr"]) == []
    unshifted = checks.SweepSpec(**{**spec.__dict__, "shift": "none"})
    assert checks.check_schedule(rows, unshifted, algo, cell["lr"])


def test_dropped_or_reordered_row_fails(central):
    config, summary = central
    spec = _spec(config, summary)
    _, rows = _trace(config, summary, "signrvr")
    assert checks.check_layout(rows, spec, "signrvr", diverged=False) == []
    assert checks.check_layout(np.delete(rows, 7, axis=0), spec, "signrvr", False)
    swapped = rows.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    assert checks.check_layout(swapped, spec, "signrvr", False)
    # A diverged cell may stop early, but only on the expected positions.
    assert checks.check_layout(rows[:9], spec, "signrvr", diverged=True) == []
    assert checks.check_layout(np.delete(rows, 3, axis=0)[:9], spec, "signrvr", True)


def test_row_bounds(central):
    config, summary = central
    spec = _spec(config, summary)
    _, rows = _trace(config, summary, "signsgd")
    assert checks.check_row_bounds(rows, spec, diverged=False) == []
    for col, value in ((F, -1e-3), (L2, rows[2, L1] * 1.01),
                       (L1, rows[2, L2] * np.sqrt(spec.dim) * 1.01)):
        bad = rows.copy()
        bad[2, col] = value
        assert checks.check_row_bounds(bad, spec, diverged=False)
    bad = rows.copy()
    bad[-1, F] = np.nan
    assert checks.check_row_bounds(bad, spec, diverged=False)
    assert checks.check_row_bounds(bad, spec, diverged=True) == []


@pytest.mark.parametrize("algo", ["signrr", "signsgd", "adam"])
def test_flipped_applied_fails_without_anchor(central, algo):
    config, summary = central
    _, rows = _trace(config, summary, algo)
    assert checks.check_unanchored(rows, algo) == []
    bad = rows.copy()
    bad[4, APPLIED] = 0.0
    assert checks.check_unanchored(bad, algo)
    bad = rows.copy()
    bad[4, DTHR] = 2.0
    assert checks.check_unanchored(bad, algo)


@pytest.mark.parametrize("algo", ["dist_signrvr", "signum_mv"])
def test_wrong_byte_count_fails(dist, algo):
    config, summary = dist
    spec = _spec(config, summary)
    cell, _ = _trace(config, summary, algo)
    assert checks.check_bytes(cell, spec) == []
    for key in ("bytes_up", "bytes_down"):
        bad = dict(cell, **{key: cell[key] + 1})
        assert checks.check_bytes(bad, spec)


def test_byte_model_ratio(dist):
    config, summary = dist
    spec = _spec(config, summary)
    anchored = sum(checks.expected_bytes(spec, "dist_signrvr"))
    vote = sum(checks.expected_bytes(spec, "signsgd_mv"))
    assert anchored / vote == 32.5


def test_lemma_violations_fail(central):
    _, summary = central
    assert checks.check_lemmas(summary) == []
    bad = copy.deepcopy(summary)
    bad["lemma_violations"] = 1
    assert checks.check_lemmas(bad)
    bad = copy.deepcopy(summary)
    bad["lemmas"][0] = bad["lemmas"][0].replace(" 0 violations", " 2 violations")
    assert checks.check_lemmas(bad)


def test_check_exit_and_output():
    name = "signrvr_3_lr1e-01.csv"
    good = [f"{name}: rerun matches stored trace byte for byte",
            "signrvr vr-deviation: 24 checks, 0 violations, worst margin 1.0e+00"]
    assert checks.check_output_lines(name, good) == []
    assert checks.check_output_lines(name, good[1:])
    assert checks.check_output_lines(name, [good[0], good[1].replace(" 0 v", " 1 v")])
    assert checks.failed_checks([0, 0, 0]) == 0
    assert checks.failed_checks([0, 3, 2]) == 2


def test_best_cell_must_descend(central):
    config, summary = central
    spec = _spec(config, summary)
    _, traces, _ = checks.verify_sweep(summary, config.out_dir)
    assert checks.check_best_descends(summary, traces, spec) == []
    bad = copy.deepcopy(summary)
    key, best = next(iter(bad["best"].items()))
    best["final"] = float(np.log10(traces[best["csv"]][0, L1])) + 1e-9
    errors = checks.check_best_descends(bad, traces, spec)
    assert len(errors) == 1 and key in errors[0]


def test_checked_steps_skip_sign_markov():
    lines = ["signrvr vr-deviation: 24 checks, 0 violations, worst margin 1e+00",
             "signrvr signed-descent: 24 checks, 0 violations, worst margin 1e-02",
             "sign-markov[gaussian]: 4 checks, 0 violations, worst margin 4e-01"]
    assert checks.checkable_lines(lines) == 48
