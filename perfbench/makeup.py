"""Layer make-up of a workload's sweeps, or of the full sweeps it stands for.

    python3 perfbench/makeup.py --workload dist_rosenbrock --seed 3
    python3 perfbench/makeup.py --workload dist_rosenbrock --seed 3 --full

Run from the repository root.  It runs one round's sweeps (as worker.py
splits them) or, with ``--full``, the full sweeps of
``workloads.full_sweeps`` (a minute or more each), once untraced and once
traced.  It prints one JSON line: the untraced sweep seconds, the lemma
section's untraced share, and each layer's traced seconds over the traced
sweep seconds.  Layers nest, so the shares do not add up.  The workloads
are sized so that these shares stay near those of the full sweeps; the
README's make-up table comes from this script.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from signshuffle import build_config, harness, run_experiment  # noqa: E402

import inputs  # noqa: E402
import tracer as tracer_module  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SELF_SHARES = ("optimizers.epoch", "distributed.run")


def sweep_seconds(configs) -> float:
    start = time.perf_counter()
    for config in configs:
        run_experiment(config)
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--full", action="store_true", help="the full sweeps instead")
    args = p.parse_args(argv)
    out = HERE / "out" / "makeup" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    csv_path = None
    if workloads.needs_logistic_csv(args.workload):
        rows = workloads.FULL_LOGISTIC_ROWS if args.full else workloads.LOGISTIC_ROWS
        csv_path = str(out / "logistic.csv")
        inputs.write_logistic_csv(csv_path, *inputs.logistic_data(
            args.seed, rows, workloads.LOGISTIC_FEATURES, workloads.LOGISTIC_CLASSES))
    if args.full:
        configs = [build_config(preset_name=preset, overrides=overrides)
                   for _, preset, overrides in workloads.full_sweeps(
                       args.workload, args.seed, str(out), csv_path)]
    else:
        configs = worker.sweep_configs(args.workload, args.seed, out, csv_path)
    try:
        lemma_s = [0.0]
        lemma_section = harness._lemma_section

        def timed_lemma_section(*a, **k):
            start = time.perf_counter()
            try:
                return lemma_section(*a, **k)
            finally:
                lemma_s[0] += time.perf_counter() - start

        harness._lemma_section = timed_lemma_section
        try:
            run_s = sweep_seconds(configs)
        finally:
            harness._lemma_section = lemma_section
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            traced_s = sweep_seconds(configs)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    totals = tracer.totals(0)
    shares = {name: round(t["s"] / traced_s, 4) for name, t in totals.items()}
    shares.update({f"{name} self": round(totals[name]["self_s"] / traced_s, 4)
                   for name in SELF_SHARES})
    print(json.dumps({"workload": args.workload, "full": args.full, "seed": args.seed,
                      "run_s": round(run_s, 3), "traced_s": round(traced_s, 3),
                      "lemma_share": round(lemma_s[0] / run_s, 4), "shares": shares}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
