"""Sweep benchmark for signshuffle: one run of one workload.

    python3 perfbench/run.py --workload central_rosenbrock --seed 1 \\
        --seconds 25 --trace 0

Run from the repository root.  The inputs are made here from ``--seed``;
the measured run happens in a fresh interpreter (worker.py) importing
``signshuffle`` from ``src/`` of this checkout, so that ``setup_s`` times
a cold start.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import inputs
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Leaves room under a 180 s limit for input generation and clean-up.
WORKER_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description="signshuffle sweep benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "signshuffle" / "__init__.py").is_file():
        print(f"no signshuffle sources under {SRC}", file=sys.stderr)
        return 2
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out / "sweeps"),
           "--result", str(result_path)]
    if workloads.needs_logistic_csv(args.workload):
        csv_path = out / "logistic.csv"
        X, y = inputs.logistic_data(args.seed, workloads.LOGISTIC_ROWS,
                                    workloads.LOGISTIC_FEATURES,
                                    workloads.LOGISTIC_CLASSES)
        inputs.write_logistic_csv(csv_path, X, y)
        cmd += ["--csv", str(csv_path)]
    # `signshuffle check` writes a temporary file; keep it inside the checkout.
    tmp = out / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                              stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "sweeps", ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    result = json.loads(result_path.read_text())
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if result["absent"]:
        print(f"absent layers (reported as 0): {', '.join(result['absent'])}")
    print(f"{result['rounds']} rounds")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
