"""One benchmark run in a fresh interpreter; started by run.py.

The parent passes the CLOCK_MONOTONIC time at which it started this
process, so ``setup_s`` covers interpreter start, ``import signshuffle``
and ``build_config`` of every sweep.  The run then repeats whole rounds
while the next one, if it takes as long as the last, ends within
``--seconds``.  A round runs every sweep of the workload with
``run_experiment``, runs ``signshuffle check`` in-process on the best-cell
trace of every (method, seed), and verifies all outputs (untimed).  With
``--trace 1`` every operation of a round runs untraced and then traced,
and the run reports per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import signshuffle
from signshuffle import build_config, main as signshuffle_cli, run_experiment

import checks
import inputs
import replay
import workloads


METHODS_PER_SWEEP = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC time at which the parent started this process")
    p.add_argument("--out", required=True, help="directory for sweep outputs")
    p.add_argument("--csv", help="generated logistic CSV, when the workload has one")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    return p.parse_args(argv)


def sweep_configs(workload, seed, out_root, csv_path) -> list:
    """The workload's sweeps, each split into sweeps of two methods.

    Bursts of outside load on a shared machine last seconds, so an
    operation timed as a whole is seldom undisturbed when it takes several;
    a split sweep takes 1-4 s and has a better chance of one undisturbed
    sample across a run's rounds than a whole sweep of 5-12 s.  The lemma section checks the best cell of
    each method either way; the sign-probability suite (about 40 ms) and
    ``summary.json`` are repeated per split.
    """
    configs = []
    for _, preset, overrides in workloads.sweeps(workload, seed, str(out_root), csv_path):
        methods = build_config(preset_name=preset, overrides=overrides).algorithms
        for k in range(0, len(methods), METHODS_PER_SWEEP):
            part = methods[k:k + METHODS_PER_SWEEP]
            configs.append(build_config(
                preset_name=preset,
                overrides=dict(overrides, algorithms=part,
                               out_dir=f"{overrides['out_dir']}/{'-'.join(part)}")))
    return configs


def timed(operation, tracer=None) -> tuple:
    """(result, seconds, traced seconds) of ``operation()``.

    With a tracer the operation runs untraced and then, back to back, traced,
    so that a burst of outside load tends to fall on both alike and their
    difference is the tracing overhead; the result is the traced run's.
    Without one, the traced seconds are None.
    """
    start = time.perf_counter()
    result = operation()
    seconds = time.perf_counter() - start
    if tracer is None:
        return result, seconds, None
    tracer.install()
    try:
        start = time.perf_counter()
        result = operation()
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return result, seconds, traced


def run_sweeps(configs, tracer=None) -> tuple[list, list, list]:
    """``run_experiment`` on every config.

    Returns ([(config, summary)], seconds, traced seconds) per config.
    """
    summaries, seconds, traced = [], [], []
    for config in configs:
        summary, s, t = timed(lambda: run_experiment(config), tracer)
        summaries.append((config, summary))
        seconds.append(s)
        traced.append(t)
    return summaries, seconds, traced


def check(trace_path) -> tuple[int, list]:
    """``signshuffle check`` on one trace: (exit code, printed lines)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = signshuffle_cli(["check", "--trace", str(trace_path)])
    return code, buf.getvalue().splitlines()


def run_checks(summaries, tracer=None) -> tuple[list, list, list]:
    """``signshuffle check`` on the best cell of every (method, seed).

    Returns (exit codes, [(trace name, printed lines)], seconds per check).
    """
    codes, outputs, seconds = [], [], []
    for config, summary in summaries:
        for best in summary["best"].values():
            path = Path(config.out_dir) / best["csv"]
            (code, lines), s, _ = timed(lambda: check(path), tracer)
            codes.append(code)
            outputs.append((best["csv"], lines))
            seconds.append(s)
    return codes, outputs, seconds


def sum_of_minima(rounds) -> float:
    """Sum over operations of each one's fastest time across rounds.

    Every round runs the same, deterministic operations in the same order,
    so their work does not vary; load from outside the process only ever
    adds to a sample.  On a shared machine that load comes in bursts of
    seconds, and the fastest sample of each operation is the one it
    disturbed least.  Across runs this is several times steadier than the
    median of the same samples.
    """
    return sum(min(column) for column in zip(*rounds))


def replay_errors(config, summary) -> list:
    """Replay epoch 0 of the largest-lr cell of each replayable method."""
    if config.problem != "rosenbrock":
        return []
    if config.dthr_kind != "constant" or config.shift == "epoch" or config.x0 != 0.0:
        return ["replay needs constant thresholds, unshifted steps and x0 = 0"]
    lr = max(config.lr_grid)
    seed = config.seeds[0]
    errors = []
    for cell in summary["cells"]:
        if (cell["algo"] not in replay.REPLAYABLE or cell["seed"] != seed
                or cell["lr"] != lr):
            continue
        rows = replay.replay_epoch(cell["algo"], seed=seed, n=config.n, d=config.d,
                                   u_max=config.u_max, lr=lr,
                                   gamma_kind=config.gamma_kind, d0=config.d0,
                                   workers=config.workers)
        trace = checks.read_trace(Path(config.out_dir) / cell["csv"])
        errors += [f"replay {cell['csv']}: {e}" for e in replay.compare(rows, trace)]
    return errors


def verify_outputs(summaries, data) -> tuple[list, list]:
    """Every output check of the sweeps; returns (errors, per-sweep stats)."""
    errors, stats = [], []
    for config, summary in summaries:
        sweep_errors, _, sweep_stats = checks.verify_sweep(summary, config.out_dir, data)
        errors += sweep_errors + replay_errors(config, summary)
        stats.append(sweep_stats)
    return errors, stats


def fingerprint(summaries) -> tuple:
    """The summaries and a digest of every trace file the sweeps wrote."""
    digests = [hashlib.sha256((Path(config.out_dir) / cell["csv"]).read_bytes()).hexdigest()
               for config, summary in summaries for cell in summary["cells"]]
    return json.dumps([s for _, s in summaries], sort_keys=True), digests


def layer_metrics(tracer, begin, summaries, stats, check_outputs):
    """Per-layer metrics of one traced round, from its spans and its outputs.

    Returns ({name: (value, unit)}, durations of the round's run_cell spans).
    """
    tot = tracer.totals(begin)
    m = {}

    def add(name, value, unit):
        m[name] = (value, unit)

    cell_durations = tot["harness.run_cell"]["durations"]
    add("harness.run_cell.calls", tot["harness.run_cell"]["calls"], "count")
    add("harness.lemma_section.s", tot["harness.lemma_section"]["s"], "s")
    add("harness.cells_diverged", sum(s.diverged for s in stats), "count")
    add("optimizers.epoch.calls", tot["optimizers.epoch"]["calls"], "count")
    add("optimizers.epoch.self_s", tot["optimizers.epoch"]["self_s"], "s")
    for layer in ("optimizers.probe", "optimizers.sign", "distributed.aggregate",
                  "problems.component_grad", "problems.batch_grad", "problems.full_grad",
                  "problems.value", "problems.rosen_parts", "problems.build",
                  "problems.smoothness", "schedules.value_at", "streams.derive",
                  "metrics.emit_csv"):
        add(f"{layer}.calls", tot[layer]["calls"], "count")
        add(f"{layer}.s", tot[layer]["s"], "s")
    for layer in ("metrics.process_series", "theory.check_vr_bound",
                  "theory.check_descent", "theory.markov_suite"):
        add(f"{layer}.s", tot[layer]["s"], "s")
    add("optimizers.iterations", sum(s.central_iterations for s in stats), "count")
    anchored = sum(s.anchored_rows for s in stats)
    add("optimizers.applied_share",
        sum(s.anchored_applied for s in stats) / anchored if anchored else 0.0, "ratio")
    add("distributed.run.calls", tot["distributed.run"]["calls"], "count")
    add("distributed.run.self_s", tot["distributed.run"]["self_s"], "s")
    add("distributed.rounds", sum(s.dist_rounds for s in stats), "count")
    add("distributed.bytes_up", sum(s.bytes_up for s in stats), "bytes")
    add("distributed.bytes_down", sum(s.bytes_down for s in stats), "bytes")
    lookups = tracer.parts_lookups
    add("problems.rosen_parts.hit_share",
        tracer.parts_hits / lookups if lookups else 0.0, "ratio")
    add("metrics.trace_bytes", sum(s.trace_bytes for s in stats), "bytes")
    lemma_lines = [ln for _, summary in summaries for ln in summary["lemmas"]]
    lemma_lines += [ln for _, lines in check_outputs for ln in lines]
    add("theory.checked_steps", checks.checkable_lines(lemma_lines), "count")
    return m, cell_durations


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(signshuffle.__file__).resolve().is_relative_to(src):
        print(f"signshuffle was imported from {signshuffle.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    out_root = Path(args.out)
    configs = sweep_configs(args.workload, args.seed, out_root, args.csv)
    setup_s = time.monotonic() - args.spawned_at

    data = inputs.read_logistic_csv(args.csv) if args.csv else None
    tracer = None
    if args.trace:
        import tracer as tracer_module  # touches private names; traced runs only
        tracer = tracer_module.Tracer()
    sweep_times, traced_sweep_times, check_times = [], [], []
    layer_rounds, cell_durations = [], []
    errors = []
    attempted = failed = 0
    began = time.perf_counter()
    k = 0
    while True:
        round_began = time.perf_counter()
        mark = tracer.mark() if tracer is not None else 0
        summaries, seconds, traced_seconds = run_sweeps(configs, tracer)
        codes, outputs, check_seconds = run_checks(summaries, tracer)
        sweep_times.append(seconds)
        traced_sweep_times.append(traced_seconds)
        check_times.append(check_seconds)
        attempted += sum(len(s["cells"]) for _, s in summaries) + len(codes)
        failed += checks.failed_checks(codes)
        # Rounds repeat the same work: the first is checked in full, later
        # ones must reproduce its outputs byte for byte.
        prints = fingerprint(summaries)
        round_errors = [e for name, lines in outputs
                        for e in checks.check_output_lines(name, lines)]
        if k == 0:
            first_prints = prints
            sweep_errors, stats = verify_outputs(summaries, data)
            round_errors += sweep_errors
        elif prints != first_prints:
            round_errors.append("outputs differ from those of round 0")
            round_errors += verify_outputs(summaries, data)[0]
        errors += [f"round {k}: {e}" for e in round_errors]
        if tracer is not None:
            round_metrics, durations = layer_metrics(tracer, mark, summaries, stats, outputs)
            layer_rounds.append(round_metrics)
            cell_durations.append(durations)
            if mark > 0:
                # Spans of the first traced round are written out; later
                # rounds only add to the medians.
                tracer.truncate(mark)
        k += 1
        # Stop before a round that would end after --seconds if it took as
        # long as this one, so that a run lasts --seconds rather than up to
        # one round more.
        now = time.perf_counter()
        if (now - began) + (now - round_began) >= args.seconds:
            break

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (sum_of_minima(sweep_times), "s"),
            "check_s": (sum_of_minima(check_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        absent = []
    else:
        metrics = {name: (statistics.median(r[name][0] for r in layer_rounds), unit)
                   for name, (_, unit) in layer_rounds[0].items()}
        durations = np.concatenate(cell_durations)
        metrics["harness.run_cell.p50_s"] = (float(np.percentile(durations, 50)), "s")
        metrics["harness.run_cell.p95_s"] = (float(np.percentile(durations, 95)), "s")
        metrics["trace.overhead_s"] = (sum_of_minima(traced_sweep_times)
                                       - sum_of_minima(sweep_times), "s")
        absent = tracer.absent()
        if not tracer.cache_present:
            absent.append("problems.rosen_parts.hit_share")
        tracer.save(Path(args.result).with_name("spans.npz"))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
        "rounds": k,
        "errors": errors[:50],
        "absent": absent,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
