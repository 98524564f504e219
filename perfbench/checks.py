"""Output checks computed apart from the package.

Every check reads what a sweep wrote (trace CSVs and ``summary.json``) and
compares it with values derived here from the sweep's configuration and,
for the logistic workload, from the generated data.  Nothing is imported
from ``signshuffle``: the method facts below restate its documented
semantics.  Each check returns a list of error strings; empty means pass.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLUMNS = ("t", "i", "f", "grad_l1", "grad_l2", "applied", "gamma", "d_threshold")
T, I, F, L1, L2, APPLIED, GAMMA, DTHR = range(len(COLUMNS))

ANCHORED = frozenset({"signrvr", "signrvm", "dist_signrvr", "dist_signrvm"})
DISTRIBUTED = frozenset({"dist_signrvr", "dist_signrvm", "signsgd_mv", "signum_mv"})
# Methods that take the epoch-shifted schedules under shift="auto".
EPOCH_SHIFTED = frozenset({"signrvm", "dist_signrvm"})

# Relative tolerances for values whose summation order is not fixed.
CLOSED_FORM_RTOL = 1e-12
DATA_GRAD_RTOL = 1e-9
NORM_RTOL = 1e-12


def read_trace(path) -> np.ndarray:
    """Trace rows as a (rows, 8) float array; a header-only file gives 0 rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows.reshape(-1, len(COLUMNS))


@dataclass(frozen=True)
class SweepSpec:
    """The facts of one sweep the checks need, read from its config."""

    problem: str
    dim: int
    n: int
    workers: int
    epochs: int
    batch_size: int
    stride: int
    gamma_kind: str
    dthr_kind: str
    shift: str
    d0: float
    aggregation: str
    bytes_per_sign: int
    bytes_per_float: int
    summary_metric: str
    x0: float

    def n_local(self, algo: str) -> int:
        if algo in DISTRIBUTED and self.problem == "logistic":
            return self.n // self.workers
        return self.n

    def n_iter(self, algo: str) -> int:
        return -(-self.n_local(algo) // self.batch_size)

    def shifted(self, algo: str) -> bool:
        return self.shift == "epoch" or (self.shift == "auto" and algo in EPOCH_SHIFTED)


def spec_from_config(config: dict, data=None) -> SweepSpec:
    """Build the spec; ``data`` is the generated (X, y) for logistic sweeps."""
    if config["problem"] == "logistic":
        X, y = data
        classes = max(2, int(y.max()) + 1)
        dim, n = X.shape[1] * classes, X.shape[0]
    else:
        dim, n = int(config["d"]), int(config["n"])
    x0 = config["x0"]
    return SweepSpec(problem=config["problem"], dim=dim, n=n,
                     workers=int(config["workers"]), epochs=int(config["epochs"]),
                     batch_size=int(config["batch_size"]),
                     stride=int(config["telemetry_stride"]),
                     gamma_kind=config["gamma_kind"], dthr_kind=config["dthr_kind"],
                     shift=config["shift"], d0=float(config["d0"]),
                     aggregation=config["aggregation"],
                     bytes_per_sign=int(config["bytes_per_sign"]),
                     bytes_per_float=int(config["bytes_per_float"]),
                     summary_metric=config["summary_metric"],
                     x0=float("nan") if isinstance(x0, list) else float(x0))


def _close(actual: float, expected: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * max(1.0, abs(expected))


def expected_positions(spec: SweepSpec, algo: str) -> np.ndarray:
    """(t, i) of every recorded row: each epoch records every stride-th iteration."""
    n_iter = spec.n_iter(algo)
    return np.array([(t, i) for t in range(spec.epochs)
                     for i in range(0, n_iter, spec.stride)], dtype=float).reshape(-1, 2)


def check_first_row(rows, spec: SweepSpec, algo: str, data=None) -> list:
    """The row at x0 = 0 against closed forms of f and the gradient norms."""
    if len(rows) == 0:
        return []  # check_layout reports the missing rows
    if spec.x0 != 0.0:
        return [f"first-row closed forms need x0 = 0, config has {spec.x0}"]
    f, l1, l2 = rows[0, F], rows[0, L1], rows[0, L2]
    errors = []
    if spec.problem == "rosenbrock":
        # At 0 every curvature gap vanishes: f_i = sum_j (1 - 0)^2 = d - 1 and
        # the gradient is -2 on the first d - 1 coordinates, 0 on the last.
        want = {"f": spec.dim - 1.0, "grad_l1": 2.0 * (spec.dim - 1),
                "grad_l2": 2.0 * math.sqrt(spec.dim - 1)}
        rtol = {"f": CLOSED_FORM_RTOL, "grad_l1": CLOSED_FORM_RTOL,
                "grad_l2": CLOSED_FORM_RTOL}
    else:
        X, y = data
        classes = spec.dim // X.shape[1]
        want = {"f": math.log(classes)}
        rtol = {"f": CLOSED_FORM_RTOL}
        if algo not in DISTRIBUTED:
            # Uniform class probabilities: grad = X^T (1/C - Y) / n, Y one-hot.
            onehot = np.eye(classes)[y]
            grad = (X.T @ (1.0 / classes - onehot)).ravel() / X.shape[0]
            want.update(grad_l1=float(np.abs(grad).sum()),
                        grad_l2=float(np.sqrt(grad @ grad)))
            rtol.update(grad_l1=DATA_GRAD_RTOL, grad_l2=DATA_GRAD_RTOL)
    got = {"f": f, "grad_l1": l1, "grad_l2": l2}
    for name, value in want.items():
        if not _close(got[name], value, rtol[name]):
            errors.append(f"first row {name}={float(got[name])!r}, closed form {value!r}")
    return errors


def expected_schedule(spec: SweepSpec, algo: str, lr: float, t, i):
    """Closed-form (gamma, d_threshold) at positions (t, i)."""
    k = spec.n_iter(algo) * (t + (1 if spec.shifted(algo) else 0)) + i + 1
    gamma = np.full(t.shape, lr) if spec.gamma_kind == "constant" else lr / np.sqrt(k)
    if algo not in ANCHORED:
        dthr = np.zeros(t.shape)
    elif spec.dthr_kind == "constant":
        dthr = np.full(t.shape, spec.d0)
    else:
        dthr = spec.d0 / np.sqrt(k)
    return gamma, dthr


def check_schedule(rows, spec: SweepSpec, algo: str, lr: float) -> list:
    """gamma and d_threshold columns within 1 ulp of their closed forms."""
    if len(rows) == 0:
        return []
    gamma, dthr = expected_schedule(spec, algo, lr, rows[:, T], rows[:, I])
    errors = []
    for name, col, want in (("gamma", GAMMA, gamma), ("d_threshold", DTHR, dthr)):
        bad = np.abs(rows[:, col] - want) > np.spacing(np.abs(want))
        if bad.any():
            k = int(np.argmax(bad))
            errors.append(f"{name} at (t={rows[k, T]:.0f}, i={rows[k, I]:.0f}) is "
                          f"{float(rows[k, col])!r}, closed form {float(want[k])!r}")
    return errors


def check_layout(rows, spec: SweepSpec, algo: str, diverged: bool) -> list:
    """Row count and (t, i) order; a diverged cell keeps a prefix of them."""
    want = expected_positions(spec, algo)
    got = rows[:, [T, I]]
    if diverged:
        if len(got) > len(want) or not np.array_equal(got, want[:len(got)]):
            return [f"diverged trace of {len(got)} rows is not a prefix of the "
                    f"{len(want)} expected positions"]
        return []
    if len(got) != len(want):
        return [f"{len(got)} rows, expected {len(want)}"]
    if not np.array_equal(got, want):
        k = int(np.argmax((got != want).any(axis=1)))
        return [f"row {k} at (t={got[k, 0]:.0f}, i={got[k, 1]:.0f}), expected "
                f"(t={want[k, 0]:.0f}, i={want[k, 1]:.0f})"]
    return []


def check_row_bounds(rows, spec: SweepSpec, diverged: bool) -> list:
    """f >= 0 and grad_l2 <= grad_l1 <= sqrt(d) * grad_l2 on every row.

    Rows of a diverged cell that hold non-finite values are exempt.
    """
    vals = rows[:, [F, L1, L2]]
    finite = np.isfinite(vals).all(axis=1)
    errors = []
    if not diverged and not finite.all():
        errors.append(f"non-finite value on row {int(np.argmin(finite))}")
    f, l1, l2 = vals[finite].T
    slack = 1.0 + NORM_RTOL
    conditions = (("f < 0", f < 0),
                  ("grad_l2 > grad_l1", l2 > l1 * slack),
                  ("grad_l1 > sqrt(d) * grad_l2", l1 > math.sqrt(spec.dim) * l2 * slack))
    for what, bad in conditions:
        if bad.any():
            errors.append(f"{what} on {int(bad.sum())} rows")
    return errors


def check_unanchored(rows, algo: str) -> list:
    """Methods without an anchor always apply their step and have no threshold."""
    if algo in ANCHORED:
        return []
    errors = []
    if (rows[:, APPLIED] != 1).any():
        errors.append(f"applied != 1 on {int((rows[:, APPLIED] != 1).sum())} rows")
    if (rows[:, DTHR] != 0).any():
        errors.append(f"d_threshold != 0 on {int((rows[:, DTHR] != 0).sum())} rows")
    return errors


def expected_bytes(spec: SweepSpec, algo: str) -> tuple[int, int]:
    """Cost model: every round each worker pushes d signs and pulls d entries.

    The pulled payload is a float per coordinate for the sign-average
    anchored methods and a sign otherwise; centralized cells send nothing.
    """
    if algo not in DISTRIBUTED:
        return 0, 0
    per_round = spec.workers * spec.dim
    rounds = spec.epochs * spec.n_iter(algo)
    down_unit = (spec.bytes_per_float
                 if algo in ANCHORED and spec.aggregation == "sign_average"
                 else spec.bytes_per_sign)
    return rounds * per_round * spec.bytes_per_sign, rounds * per_round * down_unit


def check_bytes(cell: dict, spec: SweepSpec) -> list:
    if cell["diverged"]:
        return []
    up, down = expected_bytes(spec, cell["algo"])
    if (cell["bytes_up"], cell["bytes_down"]) != (up, down):
        return [f"bytes up/down {cell['bytes_up']}/{cell['bytes_down']}, "
                f"cost model {up}/{down}"]
    return []


_REPORT = re.compile(r": (\d+) checks, (\d+) violations")


def check_lemmas(summary: dict) -> list:
    """No lemma violations, neither in the total nor on any report line."""
    errors = []
    if summary["lemma_violations"] != 0:
        errors.append(f"lemma_violations = {summary['lemma_violations']}")
    for line in summary["lemmas"]:
        m = _REPORT.search(line)
        if m is None or int(m.group(2)) != 0:
            errors.append(f"lemma report: {line}")
    return errors


def check_output_lines(name: str, lines) -> list:
    """A check's printed report: a byte-for-byte rerun and no violations."""
    errors = []
    if f"{name}: rerun matches stored trace byte for byte" not in lines:
        errors.append(f"check of {name} did not report a byte-identical rerun")
    for line in lines:
        m = _REPORT.search(line)
        if m is not None and int(m.group(2)) != 0:
            errors.append(f"check of {name}: {line}")
    return errors


def failed_checks(exit_codes) -> int:
    """Check invocations that did not exit 0 count as failed operations."""
    return sum(1 for code in exit_codes if code != 0)


def check_best_descends(summary: dict, traces: dict, spec: SweepSpec) -> list:
    """The best cell of each (method, seed) ends below its starting metric.

    ``final`` is the smoothed log10 of the summary metric; the start is the
    log10 of that metric on the first trace row.
    """
    col = {"grad_l1": L1, "f": F}[spec.summary_metric]
    errors = []
    for key, best in sorted(summary["best"].items()):
        rows = traces[best["csv"]]
        start = math.log10(rows[0, col]) if len(rows) and rows[0, col] > 0 else math.nan
        if not best["final"] < start:
            errors.append(f"best {key} ends at {best['final']!r}, start {start!r}")
    return errors


def checkable_lines(lines) -> int:
    """Steps checked by the trajectory monitors (sign-markov lines excluded)."""
    total = 0
    for line in lines:
        m = _REPORT.search(line)
        if m is not None and not line.startswith("sign-markov"):
            total += int(m.group(1))
    return total


@dataclass
class SweepStats:
    """Counts read from one sweep's outputs, for the traced run's guards."""

    cells: int = 0
    diverged: int = 0
    central_iterations: int = 0
    dist_rounds: int = 0
    anchored_rows: int = 0
    anchored_applied: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    trace_bytes: int = 0


def _iterations_done(rows, spec: SweepSpec, algo: str, diverged: bool) -> int:
    if not diverged:
        return spec.epochs * spec.n_iter(algo)
    if len(rows) == 0:
        return 0
    return int(rows[-1, T]) * spec.n_iter(algo) + int(rows[-1, I]) + 1


def verify_sweep(summary: dict, out_dir, data=None):
    """Run every per-cell and per-sweep check; returns (errors, traces, stats).

    ``traces`` maps each CSV name to its rows, for the checks that look at
    best cells afterwards.
    """
    out_dir = Path(out_dir)
    spec = spec_from_config(summary["config"], data)
    errors = check_lemmas(summary)
    traces = {}
    stats = SweepStats()
    for cell in summary["cells"]:
        algo, name, diverged = cell["algo"], cell["csv"], bool(cell["diverged"])
        path = out_dir / name
        rows = read_trace(path)
        traces[name] = rows
        cell_errors = (check_layout(rows, spec, algo, diverged)
                       + check_row_bounds(rows, spec, diverged)
                       + check_schedule(rows, spec, algo, float(cell["lr"]))
                       + check_unanchored(rows, algo)
                       + check_bytes(cell, spec)
                       + check_first_row(rows, spec, algo, data))
        errors += [f"{name}: {e}" for e in cell_errors]
        stats.cells += 1
        stats.diverged += diverged
        done = _iterations_done(rows, spec, algo, diverged)
        if algo in DISTRIBUTED:
            stats.dist_rounds += done
        else:
            stats.central_iterations += done
        if algo in ANCHORED:
            stats.anchored_rows += len(rows)
            stats.anchored_applied += int((rows[:, APPLIED] == 1).sum())
        stats.bytes_up += int(cell["bytes_up"])
        stats.bytes_down += int(cell["bytes_down"])
        stats.trace_bytes += path.stat().st_size
    errors += check_best_descends(summary, traces, spec)
    return errors, traces, stats
