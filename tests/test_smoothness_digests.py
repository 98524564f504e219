"""Bit guard for the sampled smoothness estimator, block by block.

The lemma section takes each worker's coordinate-smoothness estimate from
``estimate_coordinate_smoothness`` with ``seed`` set to the block index.
Lemma lines print the worst margin to 4 significant digits only, so this
test pins the estimator's bits: SHA-256 digests of ``est.tobytes()`` for
every block of a 3-block Rosenbrock problem and of a 3-block logistic
problem on the generated test CSV, stored in ``smoothness_digests.json``
with the numpy version they were recorded with (other versions skip).

The test reaches the estimator only through a problem of each block's own
rows, so the same digests guard any version of the package;
``test_problems.py`` checks that block m of the 3-block problem gives the
same bits.

Regenerate the file (only when a change is meant to alter the numbers):

    PYTHONPATH=src python tests/test_smoothness_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from signshuffle import (LogisticProblem, RosenbrockSum, estimate_coordinate_smoothness,
                         load_logistic_csv, make_rosenbrock)

DIGESTS = Path(__file__).with_name("smoothness_digests.json")
BLOCKS = 3
SAMPLES = 40


def cases(csv_path):
    """(name, block problems, region) of every guarded family."""
    rosen = make_rosenbrock(7 * BLOCKS, 5, 10.0, seed=4)
    n0 = rosen.n // BLOCKS
    rosen_blocks = [RosenbrockSum(rosen.b[m * n0:(m + 1) * n0], rosen.d, rosen.u_max)
                    for m in range(BLOCKS)]
    logistic = load_logistic_csv(csv_path)
    n0 = logistic.n // BLOCKS
    logistic_blocks = [LogisticProblem(logistic.features[m * n0:(m + 1) * n0],
                                       logistic.labels[m * n0:(m + 1) * n0],
                                       logistic.num_classes) for m in range(BLOCKS)]
    return [("rosenbrock", rosen_blocks, (np.full(5, -1.5), np.linspace(1.0, 2.5, 5))),
            ("logistic", logistic_blocks, (-1.0, 1.0))]


def digest(est) -> str:
    return hashlib.sha256(est.tobytes()).hexdigest()


def block_digests(csv_path) -> dict:
    return {f"{name}:{m}": digest(estimate_coordinate_smoothness(block, region, SAMPLES,
                                                                 seed=m))
            for name, blocks, region in cases(csv_path)
            for m, block in enumerate(blocks)}


def stored_digests() -> dict:
    stored = json.loads(DIGESTS.read_text())
    if stored["numpy"] != np.__version__:
        pytest.skip(f"digests recorded with numpy {stored['numpy']}, "
                    f"running {np.__version__}")
    return stored["blocks"]


def test_block_problems_match_stored_digests(logistic_csv):
    assert block_digests(logistic_csv) == stored_digests()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import write_logistic_csv

    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__,
                  "blocks": block_digests(write_logistic_csv(Path(tmp) / "logistic.csv"))}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
