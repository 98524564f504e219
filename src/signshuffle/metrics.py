"""Vector norms, series post-processing, and trace serialization."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = "t,i,f,grad_l1,grad_l2,applied,gamma,d_threshold"


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


def csv_text(trace) -> str:
    """Trace records as CSV text with round-trip exact floats (17 significant digits)."""
    return CSV_HEADER + "\n" + "".join(
        f"{r.t},{r.i},{r.f:.17g},{r.grad_l1:.17g},{r.grad_l2:.17g},"
        f"{1 if r.applied else 0},{r.gamma:.17g},{r.d_threshold:.17g}\n" for r in trace)


def emit_csv(trace, path) -> None:
    """Write :func:`csv_text` of the trace records to ``path``."""
    try:
        Path(path).write_text(csv_text(trace), newline="")
    except OSError as exc:
        raise OSError(f"writing trace to {path}: {exc}") from exc


def read_trace_csv(path):
    """Parse a trace written by :func:`emit_csv` back into records."""
    from .optimizers import TraceRecord

    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OSError(f"reading trace from {path}: {exc}") from exc
    if not rows or ",".join(rows[0]) != CSV_HEADER:
        raise ValueError(f"{path}: missing or unexpected header")
    out = []
    for k, row in enumerate(rows[1:], start=1):
        if len(row) != 8:
            raise ValueError(f"{path}: row {k} has {len(row)} fields, expected 8")
        out.append(TraceRecord(t=int(row[0]), i=int(row[1]), f=float(row[2]),
                               grad_l1=float(row[3]), grad_l2=float(row[4]),
                               applied=bool(int(row[5])), gamma=float(row[6]),
                               d_threshold=float(row[7])))
    return out
