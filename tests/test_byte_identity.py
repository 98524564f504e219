"""Byte-identity guard: tiny sweeps of all 12 methods against stored digests.

Each sweep writes its traces and ``summary.json``; the test hashes every
trace CSV and the ``cells``, ``best``, ``lemmas`` and ``lemma_violations``
sections (``config`` holds the output path and is left out) and compares
them with ``byte_digests.json``.  The digests were recorded with the numpy
version stored next to them; under another version the test is skipped,
because floating-point kernels may round differently.

Regenerate the file (only when a change is meant to alter the numbers):

    PYTHONPATH=src python tests/test_byte_identity.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from signshuffle import build_config, run_experiment

DIGESTS = Path(__file__).with_name("byte_digests.json")
SECTIONS = ("cells", "best", "lemmas", "lemma_violations")
GRID = dict(lr_grid=(5e-1, 1e-2), beta_grid=(0.5, 0.9), seeds=(1, 2))


def sweeps():
    """(name, preset, overrides) of every guarded sweep; the CSV path is filled in later."""
    out = []
    for batch in (1, 3):
        for stride in (1, 4):
            tag = f"b{batch}_s{stride}"
            # 13 rows (7 per worker) leave a one-row last batch at batch 3.
            out.append((f"rosenbrock_central_{tag}", "rosenbrock_central",
                        dict(n=13, epochs=3, batch_size=batch, telemetry_stride=stride)))
            out.append((f"rosenbrock_dist_{tag}", "rosenbrock_dist",
                        dict(n=7, workers=3, epochs=3, batch_size=batch,
                             telemetry_stride=stride)))
    out.append(("logistic_central", "logistic_central", dict(epochs=2)))
    out.append(("logistic_dist", "logistic_dist", dict(epochs=2)))
    return out


def sweep_digests(preset, overrides, csv_path, out_dir) -> dict:
    overrides = dict(GRID, **overrides, out_dir=str(out_dir))
    if preset.startswith("logistic"):
        overrides["csv_path"] = str(csv_path)
    run_experiment(build_config(preset, None, overrides, None))
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(Path(out_dir).glob("*.csv"))}
    summary = json.loads((Path(out_dir) / "summary.json").read_text())
    for key in SECTIONS:
        blob = json.dumps(summary[key], sort_keys=True).encode()
        digests[f"summary.json:{key}"] = hashlib.sha256(blob).hexdigest()
    return digests


def all_digests(csv_path, work_dir) -> dict:
    return {name: sweep_digests(preset, overrides, csv_path, Path(work_dir) / name)
            for name, preset, overrides in sweeps()}


def test_sweeps_match_stored_digests(logistic_csv, tmp_path):
    stored = json.loads(DIGESTS.read_text())
    if stored["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {stored['numpy']}, "
                    f"running {np.__version__}")
    got = all_digests(logistic_csv, tmp_path)
    assert sorted(got) == sorted(stored["sweeps"])
    for name, files in stored["sweeps"].items():
        differ = sorted(k for k in set(files) | set(got[name])
                        if files.get(k) != got[name].get(k))
        assert not differ, f"{name}: outputs differ from the stored digests: {differ}"


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import write_logistic_csv

    with tempfile.TemporaryDirectory() as tmp:
        csv = write_logistic_csv(Path(tmp) / "logistic.csv")
        record = {"numpy": np.__version__, "sweeps": all_digests(csv, tmp)}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
