"""Vector norms, series post-processing, and trace serialization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = "t,i,f,grad_l1,grad_l2,applied,gamma,d_threshold"
COLUMNS = tuple(CSV_HEADER.split(","))
# One trace row; %-formatting with .17g writes round-trip exact floats.
_ROW = "%d,%d,%.17g,%.17g,%.17g,%d,%.17g,%.17g\n"


@dataclass(slots=True)
class TraceRecord:
    """Telemetry for one inner iteration, taken before the update."""

    t: int
    i: int
    f: float
    grad_l1: float
    grad_l2: float
    applied: bool
    gamma: float
    d_threshold: float


@dataclass(eq=False)
class Trace:
    """The telemetry of one run, one array per CSV column and one entry per
    recorded iteration; indexing gives a :class:`TraceRecord`.

    ``error`` names where a row of the update kernel stopped (a NaN entry);
    such a trace has no records.
    """

    t: np.ndarray
    i: np.ndarray
    f: np.ndarray
    grad_l1: np.ndarray
    grad_l2: np.ndarray
    applied: np.ndarray
    gamma: np.ndarray
    d_threshold: np.ndarray
    error: str = ""

    def __post_init__(self):
        for name in COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name)))

    @classmethod
    def stopped(cls, error: str) -> "Trace":
        return cls(*([()] * len(COLUMNS)), error=error)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k) -> TraceRecord:
        return TraceRecord(*(getattr(self, name)[k].item() for name in COLUMNS))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.error == other.error and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in COLUMNS)


def l1_norm(v) -> float:
    total = float(np.abs(v).sum())
    if math.isnan(total):
        raise FloatingPointError("l1_norm: NaN entry")
    return total


def l2_norm(v) -> float:
    v = np.asarray(v, dtype=float)
    sq = float(v @ v)
    if math.isnan(sq):
        raise FloatingPointError("l2_norm: NaN entry")
    return math.sqrt(sq)


@dataclass(frozen=True)
class ProcessedSeries:
    """A scalar series together with its smoothed view.

    ``transform`` records what was applied to the raw series ("identity" or
    "log10"); ``smoothed`` is the trailing moving average with a truncated
    head, so entry k averages the last min(k+1, window) transformed values.
    """

    raw: np.ndarray
    window: int
    transform: str
    smoothed: np.ndarray


def _trailing_mean(x: np.ndarray, window: int) -> np.ndarray:
    if x.size == 0:
        return x.copy()
    cs = np.cumsum(x)
    out = np.empty_like(x)
    head = min(window, x.size)
    out[:head] = cs[:head] / np.arange(1, head + 1)
    if x.size > window:
        out[window:] = (cs[window:] - cs[:-window]) / window
    return out


def moving_average(series, window: int) -> ProcessedSeries:
    """Trailing moving average; early entries average what exists so far."""
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    x = np.asarray(series, dtype=float)
    return ProcessedSeries(raw=x, window=window, transform="identity",
                           smoothed=_trailing_mean(x, window))


def log10_series(series) -> np.ndarray:
    """Element-wise log10, rejecting non-positive entries outright."""
    x = np.asarray(series, dtype=float)
    bad = ~(x > 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"log10_series: non-positive value {x[k]} at index {k}")
    return np.log10(x)


def process_series(series, window: int, transform: str = "identity",
                   smooth_after_transform: bool = True) -> ProcessedSeries:
    """Apply an optional log10 transform and a trailing moving average.

    By default the transform runs first and the average smooths the
    transformed values; with ``smooth_after_transform=False`` the raw series
    is smoothed and the transform applied to the result.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if transform not in ("identity", "log10"):
        raise ValueError(f"unknown transform {transform!r}")
    x = np.asarray(series, dtype=float)
    if transform == "identity":
        return moving_average(x, window)
    if smooth_after_transform:
        logs = log10_series(x)
        return ProcessedSeries(raw=logs, window=window, transform="log10",
                               smoothed=_trailing_mean(logs, window))
    smoothed = _trailing_mean(x, window)
    return ProcessedSeries(raw=x, window=window, transform="log10",
                           smoothed=log10_series(smoothed))


def csv_text(trace: Trace) -> str:
    """A trace as CSV text with round-trip exact floats (17 significant digits)."""
    columns = [getattr(trace, name).tolist() for name in COLUMNS]
    return CSV_HEADER + "\n" + "".join(map(_ROW.__mod__, zip(*columns)))


def emit_csv(trace: Trace, path) -> None:
    """Write :func:`csv_text` of the trace to ``path``."""
    try:
        Path(path).write_text(csv_text(trace), newline="")
    except OSError as exc:
        raise OSError(f"writing trace to {path}: {exc}") from exc


def read_trace_csv(path) -> Trace:
    """Parse a trace written by :func:`emit_csv` back into its columns."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OSError(f"reading trace from {path}: {exc}") from exc
    if not rows or ",".join(rows[0]) != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    body = rows[1:]
    for k, row in enumerate(body, start=1):
        if len(row) != len(COLUMNS):
            raise ValueError(f"{path}: row {k} has {len(row)} fields, expected {len(COLUMNS)}")
    t, i, f, l1, l2, applied, gamma, dthr = zip(*body) if body else [()] * len(COLUMNS)

    def ints(col):
        return np.array([int(v) for v in col], dtype=int)

    def floats(col):
        return np.array([float(v) for v in col])

    return Trace(ints(t), ints(i), floats(f), floats(l1), floats(l2),
                 ints(applied).astype(bool), floats(gamma), floats(dthr))
