"""Experiment runner: config handling, presets, grid sweeps, and the CLI.

A sweep executes every (algorithm, seed, grid point) cell, writes one trace
CSV per cell plus a ``summary.json`` holding the per-cell final metrics,
the best grid point per algorithm and seed, and one line per lemma check.
Everything is deterministic given the config: rerunning a sweep reproduces
the CSV files byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import numbers
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics, theory
from .distributed import make_rosenbrock_workers
from .optimizers import Method, run
from .problems import (FiniteSumProblem, LogisticProblem, estimate_coordinate_smoothness,
                       load_logistic_csv, make_rosenbrock)
from .schedules import Constant, InverseSqrt


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the bad keys."""


DEFAULT_LR_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
DEFAULT_BETA_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

CENTRAL_ALGOS = ("sgd", "rr", "signsgd", "signum", "adam",
                 "signrr", "signrvr", "signrvm")
DIST_ALGOS = ("signsgd_mv", "signum_mv", "dist_signrvr", "dist_signrvm")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One method as a composition of the update kernel's parts.

    See :mod:`signshuffle.optimizers` for the sampler, estimator, direction
    and aggregator; ``aggregator`` None stands for the configured
    ``aggregation`` rule.  Distributed methods aggregate across
    ``workers``; momentum and Adam directions are tuned over the beta grid.
    The vr-deviation monitor applies to anchored estimates; the descent
    bound needs a ternary update direction, so it covers only the
    centralized sign methods.
    """

    name: str
    sampler: str
    estimator: str
    direction: str
    aggregator: str | None = "identity"

    @property
    def distributed(self) -> bool:
        return self.aggregator != "identity"

    @property
    def momentum(self) -> bool:
        return self.direction in ("momentum", "adam")

    @property
    def vr_check(self) -> bool:
        return self.estimator == "anchored"

    @property
    def descent_check(self) -> bool:
        return not self.distributed and self.direction in ("sign", "momentum")


ALGORITHMS = {spec.name: spec for spec in (
    AlgorithmSpec("sgd", "draw", "component", "raw"),
    AlgorithmSpec("rr", "shuffle", "component", "raw"),
    AlgorithmSpec("signsgd", "draw", "component", "sign"),
    AlgorithmSpec("signum", "draw", "component", "momentum"),
    AlgorithmSpec("adam", "draw", "component", "adam"),
    AlgorithmSpec("signrr", "shuffle", "component", "sign"),
    AlgorithmSpec("signrvr", "shuffle", "anchored", "sign"),
    AlgorithmSpec("signrvm", "shuffle", "anchored", "momentum"),
    AlgorithmSpec("dist_signrvr", "shuffle", "anchored", "sign", None),
    AlgorithmSpec("dist_signrvm", "shuffle", "anchored", "momentum", None),
    AlgorithmSpec("signsgd_mv", "draw", "component", "sign", "majority_vote"),
    AlgorithmSpec("signum_mv", "draw", "component", "momentum", "majority_vote"),
)}

# Momentum variants use the epoch-shifted adaptive schedules.
EPOCH_SHIFT_ALGOS = frozenset({"signrvm", "dist_signrvm"})

SCHEDULE_KINDS = ("constant", "inverse_sqrt")
SHIFT_MODES = ("auto", "none", "epoch")
SUMMARY_METRICS = ("grad_l1", "f")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "rosenbrock"
    n: int = 1000
    d: int = 5
    u_max: float = 10.0
    csv_path: str | None = None
    csv_has_header: bool = False
    algorithms: tuple[str, ...] = CENTRAL_ALGOS
    epochs: int = 150
    gamma_kind: str = "constant"
    dthr_kind: str = "constant"
    shift: str = "auto"
    lr_grid: tuple[float, ...] = DEFAULT_LR_GRID
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    d0: float = 0.1
    batch_size: int = 1
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    workers: int = 1
    aggregation: str = "sign_average"
    bytes_per_sign: int = 1
    bytes_per_float: int = 64
    telemetry_stride: int = 1
    smoothing_window: int = 10
    summary_metric: str = "grad_l1"
    smooth_after_log: bool = True
    x0: float | tuple[float, ...] = 0.0
    problem_seed: int | None = None
    lemma_checks: bool = True
    smoothness_samples: int = 200
    jobs: int = 1
    out_dir: str = "runs"


# Each field's annotation drives CLI flag parsing, config-file coercion and
# the type check of validate_config.
_FIELD_KINDS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


# The types each scalar annotation admits; a bool passes only as a bool.
_ADMITS = {"str": str, "int": numbers.Integral, "float": numbers.Real, "bool": bool,
           "None": type(None)}


def _admits(kind: str, value) -> bool:
    return isinstance(value, _ADMITS[kind]) and (kind == "bool") == isinstance(value, bool)


def _fits(kind: str, value) -> bool:
    """Whether ``value`` has a type the annotation ``kind`` names."""
    for alt in kind.split(" | "):
        if alt.startswith("tuple["):
            item = alt[len("tuple["):-len(", ...]")]
            if isinstance(value, tuple) and all(_admits(item, v) for v in value):
                return True
        elif _admits(alt, value):
            return True
    return False


PRESET_NAMES = ("rosenbrock_central", "rosenbrock_dist",
                "logistic_central", "logistic_dist")


def preset(name: str) -> ExperimentConfig:
    """The full-scale preset configurations; shrink with apply_scale for desk runs."""
    if name == "rosenbrock_central":
        return ExperimentConfig(gamma_kind="inverse_sqrt", shift="none", d0=2.0,
                                out_dir="runs/rosenbrock_central")
    if name == "rosenbrock_dist":
        return ExperimentConfig(algorithms=DIST_ALGOS, workers=10,
                                gamma_kind="inverse_sqrt", shift="none", d0=2.0,
                                smoothing_window=7, summary_metric="f",
                                out_dir="runs/rosenbrock_dist")
    if name == "logistic_central":
        return ExperimentConfig(problem="logistic",
                                out_dir="runs/logistic_central")
    if name == "logistic_dist":
        return ExperimentConfig(problem="logistic", algorithms=DIST_ALGOS,
                                workers=10, smoothing_window=7, summary_metric="f",
                                out_dir="runs/logistic_dist")
    raise ConfigError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")


def apply_scale(config: ExperimentConfig, scale: float) -> ExperimentConfig:
    """Shrink n and epochs together, keeping grids and everything else."""
    if not (math.isfinite(scale) and scale > 0):
        raise ConfigError(f"scale must be positive and finite, got {scale}")
    return dataclasses.replace(config,
                               n=max(1, round(config.n * scale)),
                               epochs=max(1, round(config.epochs * scale)))


def validate_config(config: ExperimentConfig) -> None:
    wrong = [f"{name}: expected {kind}, got {getattr(config, name)!r}"
             for name, kind in _FIELD_KINDS.items() if not _fits(kind, getattr(config, name))]
    if wrong:
        raise ConfigError("; ".join(wrong))
    errors = []
    if config.problem not in ("rosenbrock", "logistic"):
        errors.append(f"problem: unknown problem {config.problem!r}")
    if config.problem == "rosenbrock":
        if config.n < 1:
            errors.append(f"n: must be at least 1, got {config.n}")
        if config.d < 2:
            errors.append(f"d: must be at least 2, got {config.d}")
        if not (math.isfinite(config.u_max) and config.u_max > 0):
            errors.append(f"u_max: must be positive and finite, got {config.u_max}")
    else:
        if not config.csv_path:
            errors.append("csv_path: required for the logistic problem")
        elif not Path(config.csv_path).is_file():
            errors.append(f"csv_path: no file at {config.csv_path}")
    if not config.algorithms:
        errors.append("algorithms: empty list")
    unknown = [a for a in config.algorithms if a not in ALGORITHMS]
    if unknown:
        errors.append(f"algorithms: unknown {', '.join(unknown)}")
    if len(set(config.algorithms)) != len(config.algorithms):
        errors.append("algorithms: duplicates")
    if config.epochs < 1:
        errors.append(f"epochs: must be at least 1, got {config.epochs}")
    if config.gamma_kind not in SCHEDULE_KINDS:
        errors.append(f"gamma_kind: unknown {config.gamma_kind!r}")
    if config.dthr_kind not in SCHEDULE_KINDS:
        errors.append(f"dthr_kind: unknown {config.dthr_kind!r}")
    if config.shift not in SHIFT_MODES:
        errors.append(f"shift: unknown {config.shift!r}")
    if not config.lr_grid:
        errors.append("lr_grid: empty")
    elif any(not (math.isfinite(v) and v > 0) for v in config.lr_grid):
        errors.append("lr_grid: entries must be positive and finite")
    needs_beta = any(a in ALGORITHMS and ALGORITHMS[a].momentum
                     for a in config.algorithms)
    if needs_beta and not config.beta_grid:
        errors.append("beta_grid: empty but a momentum method is selected")
    if any(not 0 < b < 1 for b in config.beta_grid):
        errors.append("beta_grid: entries must lie in (0, 1)")
    if not (math.isfinite(config.d0) and config.d0 > 0):
        errors.append(f"d0: must be positive and finite, got {config.d0}")
    if config.batch_size < 1:
        errors.append(f"batch_size: must be at least 1, got {config.batch_size}")
    if not config.seeds:
        errors.append("seeds: empty")
    elif len(set(config.seeds)) != len(config.seeds):
        errors.append("seeds: must be distinct")
    elif any(s < 0 for s in config.seeds):
        errors.append("seeds: must be non-negative")
    if config.workers < 1:
        errors.append(f"workers: must be at least 1, got {config.workers}")
    if config.aggregation not in ("sign_average", "majority_vote"):
        errors.append(f"aggregation: unknown {config.aggregation!r}")
    if config.bytes_per_sign < 1:
        errors.append(f"bytes_per_sign: must be at least 1, got {config.bytes_per_sign}")
    if config.bytes_per_float < 1:
        errors.append(f"bytes_per_float: must be at least 1, got {config.bytes_per_float}")
    if config.telemetry_stride < 1:
        errors.append(f"telemetry_stride: must be at least 1, got {config.telemetry_stride}")
    if config.smoothing_window < 1:
        errors.append(f"smoothing_window: must be at least 1, got {config.smoothing_window}")
    if config.summary_metric not in SUMMARY_METRICS:
        errors.append(f"summary_metric: unknown {config.summary_metric!r}")
    if isinstance(config.x0, tuple):
        if config.problem == "rosenbrock" and len(config.x0) != config.d:
            errors.append(f"x0: length {len(config.x0)} does not match d={config.d}")
        if any(not math.isfinite(v) for v in config.x0):
            errors.append("x0: entries must be finite")
    elif not math.isfinite(config.x0):
        errors.append(f"x0: must be finite, got {config.x0}")
    if config.problem_seed is not None and config.problem_seed < 0:
        errors.append(f"problem_seed: must be non-negative, got {config.problem_seed}")
    if config.smoothness_samples < 1:
        errors.append(f"smoothness_samples: must be at least 1, got {config.smoothness_samples}")
    if config.jobs < 1:
        errors.append(f"jobs: must be at least 1, got {config.jobs}")
    if errors:
        raise ConfigError("; ".join(errors))


def _coerce(name: str, value):
    """JSON lists become the tuples the annotations name."""
    kind = _FIELD_KINDS[name]
    if kind.startswith("tuple") and isinstance(value, list):
        return tuple(value)
    if kind == "float | tuple[float, ...]" and isinstance(value, list):
        return tuple(float(v) if _admits("float", v) else v for v in value)
    return value


def config_from_dict(data: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """``base`` (the defaults when None) with the fields that ``data`` names."""
    unknown = [k for k in data if k not in _FIELD_KINDS]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return dataclasses.replace(base or ExperimentConfig(),
                               **{k: _coerce(k, v) for k, v in data.items()})


def load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a flat object")
    return data


def build_config(preset_name=None, file_path=None, overrides=None,
                 scale=None) -> ExperimentConfig:
    """Defaults, then preset, then config file, then flag overrides, then scale."""
    config = preset(preset_name) if preset_name else ExperimentConfig()
    merged = {}
    if file_path:
        merged.update(load_config_file(file_path))
    if overrides:
        merged.update(overrides)
    if merged:
        config = config_from_dict(merged, config)
    if scale is not None:
        config = apply_scale(config, scale)
    validate_config(config)
    return config


@dataclass(frozen=True)
class Cell:
    algo: str
    seed: int
    lr: float
    beta: float | None


def grid_cells(config: ExperimentConfig):
    cells = []
    for algo in config.algorithms:
        betas = config.beta_grid if ALGORITHMS[algo].momentum else (None,)
        for seed in config.seeds:
            for lr in config.lr_grid:
                for beta in betas:
                    cells.append(Cell(algo, seed, lr, beta))
    return cells


def cell_grid_id(cell: Cell) -> str:
    gid = f"lr{cell.lr:.0e}"
    if cell.beta is not None:
        gid += f"_b{cell.beta:g}"
    return gid


def cell_filename(cell: Cell) -> str:
    return f"{cell.algo}_{cell.seed}_{cell_grid_id(cell)}.csv"


def _epoch_shift(config: ExperimentConfig, algo: str) -> bool:
    if config.shift == "epoch":
        return True
    if config.shift == "none":
        return False
    return algo in EPOCH_SHIFT_ALGOS


def _schedule(kind: str, scale_value: float, shifted: bool):
    if kind == "constant":
        return Constant(scale_value)
    return InverseSqrt(scale_value, epoch_shift=shifted)


def _problem_seed(config: ExperimentConfig, seed: int) -> int:
    return seed if config.problem_seed is None else config.problem_seed


def _load_data(config: ExperimentConfig) -> LogisticProblem | None:
    """The rows of a logistic sweep, read once per sweep or check; None for
    Rosenbrock, whose rows each cell draws from its seed.  A CSV that does
    not parse is a ConfigError."""
    if config.problem != "logistic":
        return None
    try:
        return load_logistic_csv(config.csv_path, has_header=config.csv_has_header)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"csv_path: {exc}") from exc


def _check_partition(config: ExperimentConfig, data: LogisticProblem | None) -> None:
    """Distributed logistic runs need the rows to split evenly across workers."""
    if data is None or not any(ALGORITHMS[a].distributed for a in config.algorithms):
        return
    if data.n % config.workers:
        raise ConfigError(f"workers: {data.n} rows do not split evenly across "
                          f"{config.workers} workers; the row count must be "
                          f"divisible by the worker count")


def _problem(config: ExperimentConfig, spec: AlgorithmSpec, seed: int,
             data: LogisticProblem | None) -> FiniteSumProblem:
    """The cell's problem, split into one block per worker."""
    if data is not None:
        return data.split(config.workers if spec.distributed else 1)
    problem_seed = _problem_seed(config, seed)
    if spec.distributed:
        return make_rosenbrock_workers(config.workers, config.n, config.d,
                                       config.u_max, problem_seed)
    return make_rosenbrock(config.n, config.d, config.u_max, problem_seed)


def _x0_vector(config: ExperimentConfig, d: int) -> np.ndarray:
    if isinstance(config.x0, tuple):
        arr = np.asarray(config.x0, dtype=float)
        if arr.shape != (d,):
            raise ConfigError(f"x0: length {arr.size} does not match dimension {d}")
        return arr
    return np.full(d, float(config.x0))


def _run(config: ExperimentConfig, cells, data: LogisticProblem | None, detail=None):
    """Run cells of one (algorithm, seed) as the rows of one kernel call.

    Returns (one trace per cell, ledger, problem).  A cell that diverged has
    a trace with no records that names the error.
    """
    spec = ALGORITHMS[cells[0].algo]
    shifted = _epoch_shift(config, spec.name)
    method = Method(spec.sampler, spec.estimator, spec.direction,
                    spec.aggregator or config.aggregation,
                    beta=tuple(0.9 if cell.beta is None else cell.beta for cell in cells))
    with np.errstate(all="ignore"):
        problem = _problem(config, spec, cells[0].seed, data)
        _, traces, ledger = run(
            problem, method, range(config.epochs),
            _schedule(config.gamma_kind, np.array([cell.lr for cell in cells]), shifted),
            _schedule(config.dthr_kind, config.d0, shifted),
            seed=cells[0].seed, x0=np.tile(_x0_vector(config, problem.d), (len(cells), 1)),
            batch_size=config.batch_size, telemetry_stride=config.telemetry_stride,
            detail=detail, bytes_per_sign=config.bytes_per_sign,
            bytes_per_float=config.bytes_per_float)
    return traces, ledger, problem


def _final_metric(config: ExperimentConfig, trace) -> float:
    if not len(trace):
        raise ValueError("empty trace")
    processed = metrics.process_series(getattr(trace, config.summary_metric),
                                       config.smoothing_window, "log10",
                                       smooth_after_transform=config.smooth_after_log)
    final = float(processed.smoothed[-1])
    if not math.isfinite(final):
        raise ValueError("non-finite summary metric")
    return final


def run_cell(config: ExperimentConfig, cells, data: LogisticProblem | None = None) -> list:
    """Execute cells of one (algorithm, seed) as the rows of one kernel call,
    write each cell's trace CSV, and summarize each cell, in order.

    ``data`` is the sweep's loaded logistic rows; without it a logistic group
    reads ``config.csv_path`` itself.

    Divergence (a NaN entry, metric leaving the positive range) is not an
    error: the cell reports an infinite final metric so grid selection skips
    past it, and the other cells of the group run on.  A cell that diverges
    inside the kernel writes a header-only trace and reports no traffic; a
    cell whose final metric fails keeps its full trace.
    """
    if data is None:
        data = _load_data(config)
    traces, ledger, _ = _run(config, cells, data)
    rows = []
    for cell, trace in zip(cells, traces):
        row = {"algo": cell.algo, "seed": cell.seed, "lr": cell.lr, "beta": cell.beta,
               "csv": cell_filename(cell), "final": math.inf, "diverged": False,
               "error": "", "bytes_up": 0, "bytes_down": 0}
        rows.append(row)
        metrics.emit_csv(trace, Path(config.out_dir) / row["csv"])
        if trace.error:
            row["diverged"] = True
            row["error"] = f"diverged: {trace.error}"
            continue
        row["bytes_up"] = ledger.bytes_up
        row["bytes_down"] = ledger.bytes_down
        try:
            row["final"] = _final_metric(config, trace)
        except ValueError as exc:
            row["diverged"] = True
            row["error"] = f"metric failed: {exc}"
    return rows


def _sort_key(row):
    beta = -1.0 if row["beta"] is None else row["beta"]
    return (row["final"], row["lr"], beta)


def _best_by(rows, group) -> dict:
    """Per ``group(row)``: the minimal final metric, ties to smaller lr."""
    best = {}
    for row in rows:
        key = group(row)
        cur = best.get(key)
        if cur is None or _sort_key(row) < _sort_key(cur):
            best[key] = row
    return best


def select_best(rows) -> dict:
    """Per (algorithm, seed): the minimal final metric, ties to smaller lr."""
    return _best_by(rows, lambda row: (row["algo"], row["seed"]))


def _reports_for_detail(config: ExperimentConfig, cell: Cell, detail,
                        problem: FiniteSumProblem):
    spec = ALGORITHMS[cell.algo]
    if not detail or not (spec.vr_check or spec.descent_check):
        return []
    pad = max(step.gamma for step in detail)
    region = theory.iterate_box(detail, pad)
    smooth = np.max([estimate_coordinate_smoothness(problem, region, config.smoothness_samples,
                                                    seed=m, block=m)
                     for m in range(problem.parts)], axis=0)
    reports = []
    if spec.vr_check:
        reports.append(theory.check_vr_bound(detail, smooth))
    if spec.descent_check:
        reports.append(theory.check_descent(detail, smooth))
    return [dataclasses.replace(r, lemma_id=f"{cell.algo} {r.lemma_id}")
            for r in reports]


def _lemma_section(config: ExperimentConfig, rows, data: LogisticProblem | None):
    """Lemma reports for the best non-diverged cell of each checkable method,
    plus the synthetic sign-probability suite."""
    per_algo = _best_by([row for row in rows if not row["diverged"]], lambda row: row["algo"])
    reports = []
    for algo in config.algorithms:
        spec = ALGORITHMS[algo]
        if not (spec.vr_check or spec.descent_check):
            continue
        row = per_algo.get(algo)
        if row is None:
            continue
        cell = Cell(algo, row["seed"], row["lr"], row["beta"])
        detail = []
        _, _, problem = _run(config, [cell], data, detail)
        reports.extend(_reports_for_detail(config, cell, detail, problem))
    reports.extend(theory.markov_suite())
    return reports


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the sweep, write per-cell CSVs and summary.json, return the summary."""
    validate_config(config)
    data = _load_data(config)
    _check_partition(config, data)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = grid_cells(config)
    # grid_cells lists the cells of each (algorithm, seed) next to each other.
    groups = [list(group) for _, group in
              itertools.groupby(cells, key=lambda cell: (cell.algo, cell.seed))]
    try:
        if config.jobs > 1:
            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                done = list(pool.map(run_cell, [config] * len(groups), groups,
                                     [data] * len(groups)))
        else:
            done = [run_cell(config, group, data) for group in groups]
        rows = [row for group_rows in done for row in group_rows]
        lemma_reports = _lemma_section(config, rows, data) if config.lemma_checks else []
        best = select_best(rows)
        summary = {
            "config": dataclasses.asdict(config),
            "cells": rows,
            "best": {f"{algo}:{seed}": {k: row[k] for k in
                                        ("lr", "beta", "final", "csv")}
                     for (algo, seed), row in sorted(best.items())},
            "lemmas": [r.line() for r in lemma_reports],
            "lemma_violations": int(sum(r.violations for r in lemma_reports)),
        }
        with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return summary
    except Exception:
        for cell in cells:
            (out_dir / cell_filename(cell)).unlink(missing_ok=True)
        (out_dir / "summary.json").unlink(missing_ok=True)
        raise


# The JSON types a stored cell row's grid coordinates must have.
_CELL_KINDS = (("seed", "int"), ("lr", "float"), ("beta", "float | None"))


def _stored_cell(summary_path: Path, name: str):
    """The config and cell behind a stored trace; ConfigError if the summary
    is malformed or does not list the trace."""
    try:
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"{summary_path} is not valid JSON: {exc}") from exc
    if not isinstance(summary, dict):
        raise ConfigError(f"{summary_path} must hold an object")
    for key, kind in (("config", dict), ("cells", list)):
        if not isinstance(summary.get(key), kind):
            raise ConfigError(f"{summary_path}: missing or malformed {key!r}")
    config = config_from_dict(summary["config"])
    validate_config(config)
    for k, row in enumerate(summary["cells"]):
        missing = [key for key in ("csv", "algo", "seed", "lr", "beta")
                   if not isinstance(row, dict) or key not in row]
        if missing:
            raise ConfigError(f"{summary_path}: cell {k} lacks {', '.join(missing)}")
        if row["csv"] != name:
            continue
        if row["algo"] not in ALGORITHMS:
            raise ConfigError(f"{summary_path}: cell {k} has unknown algo {row['algo']!r}")
        wrong = [f"{key} {row[key]!r}" for key, kind in _CELL_KINDS
                 if not _fits(kind, row[key])]
        if wrong:
            raise ConfigError(f"{summary_path}: cell {k} has the wrong type of "
                              f"{', '.join(wrong)}")
        return config, Cell(row["algo"], row["seed"], float(row["lr"]),
                            None if row["beta"] is None else float(row["beta"]))
    raise ConfigError(f"{name} not listed in {summary_path}")


def run_check(trace_path: str) -> int:
    """Rerun one stored trace deterministically and its theory checks."""
    path = Path(trace_path)
    if not path.is_file():
        print(f"config error: no trace file at {path}", file=sys.stderr)
        return 2
    summary_path = path.parent / "summary.json"
    if not summary_path.is_file():
        print(f"config error: no summary.json next to {path}", file=sys.stderr)
        return 2
    try:
        config, cell = _stored_cell(summary_path, path.name)
        data = _load_data(config)
        _check_partition(config, data)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    detail = []
    (trace,), _, problem = _run(config, [cell], data, detail)
    if metrics.csv_text(trace).encode() != path.read_bytes():
        print(f"check failed: rerun of {path.name} differs from the stored trace")
        return 3
    print(f"{path.name}: rerun matches stored trace byte for byte")
    if trace.error:
        print(f"trajectory diverged ({trace.error}); no lemma checks to run")
        return 0
    reports = _reports_for_detail(config, cell, detail, problem)
    if not reports:
        print("no trajectory lemma checks apply to this method")
        return 0
    for report in reports:
        print(report.line())
    return 3 if any(r.violations for r in reports) else 0


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_x0(raw: str):
    parts = [p for p in raw.split(",") if p]
    if len(parts) == 1:
        return float(parts[0])
    return tuple(float(p) for p in parts)


# How a flag's text becomes a value, keyed by the field's annotation.
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str | None": lambda raw: None if raw.lower() == "none" else raw,
    "int | None": lambda raw: None if raw.lower() == "none" else int(raw),
    "tuple[str, ...]": lambda raw: tuple(p for p in raw.split(",") if p),
    "tuple[float, ...]": lambda raw: tuple(float(p) for p in raw.split(",") if p),
    "tuple[int, ...]": lambda raw: tuple(int(p) for p in raw.split(",") if p),
    "float | tuple[float, ...]": _parse_x0,
}


def _parse_flag(name: str, raw: str):
    try:
        return _PARSERS[_FIELD_KINDS[name]](raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


PRESET_LINES = (
    ("rosenbrock_central", "finite-sum Rosenbrock, 8 centralized methods, "
                           "n=1000 d=5 T=150 U=10"),
    ("rosenbrock_dist", "finite-sum Rosenbrock across 10 workers, sign-average "
                        "and majority-vote methods, n0=1000 T=150"),
    ("logistic_central", "multinomial logistic regression from a CSV, "
                         "8 centralized methods"),
    ("logistic_dist", "multinomial logistic regression split across 10 workers"),
)


def _cli() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signshuffle",
        description="Sign-based finite-sum optimization sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a sweep")
    run_p.add_argument("--config", help="JSON config file (flat keys)")
    run_p.add_argument("--preset", help="start from a named preset")
    run_p.add_argument("--scale", type=float,
                       help="shrink n and epochs by this factor")
    run_p.add_argument("--out", dest="opt_out_dir", help="output directory")
    for name in _FIELD_KINDS:
        if name != "out_dir":
            run_p.add_argument(f"--{name.replace('_', '-')}", dest=f"opt_{name}",
                               metavar="V", help=argparse.SUPPRESS)
    check_p = sub.add_parser("check", help="rerun theory checks on a stored trace")
    check_p.add_argument("--trace", required=True, help="path to a trace CSV")
    sub.add_parser("presets", help="list preset names")
    return parser


def main(argv=None) -> int:
    args = _cli().parse_args(argv)
    if args.command == "presets":
        for name, blurb in PRESET_LINES:
            print(f"{name:20s} {blurb}")
        return 0
    if args.command == "check":
        return run_check(args.trace)
    try:
        overrides = {}
        for name in _FIELD_KINDS:
            raw = getattr(args, f"opt_{name}", None)
            if raw is not None:
                overrides[name] = _parse_flag(name, raw)
        config = build_config(args.preset, args.config, overrides, args.scale)
        summary = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(summary['cells'])} cells -> {config.out_dir}/summary.json")
    for key, row in summary["best"].items():
        beta = "" if row["beta"] is None else f" beta={row['beta']:g}"
        print(f"best {key}: lr={row['lr']:g}{beta} final={row['final']:.4f}")
    for line in summary["lemmas"]:
        print(line)
    return 3 if summary["lemma_violations"] else 0
