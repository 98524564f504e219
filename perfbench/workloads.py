"""Workload definitions: which sweeps one round of each workload runs."""

from __future__ import annotations

# Shape of the generated logistic data: 5x the Rosenbrock dimension (d = 8 * 3).
LOGISTIC_ROWS = 480
LOGISTIC_FEATURES = 8
LOGISTIC_CLASSES = 3
# Rows of the full logistic sweeps the workload stands for (makeup.py).
FULL_LOGISTIC_ROWS = 600

WORKLOADS = ("central_rosenbrock", "dist_rosenbrock", "minibatch_logistic")


def needs_logistic_csv(workload: str) -> bool:
    return workload == "minibatch_logistic"


def sweeps(workload: str, seed: int, out_root: str, csv_path: str | None = None):
    """The (name, preset, overrides) of every sweep one round of a workload runs.

    Every sweep uses one sweep seed, the workload seed itself, and
    ``jobs=1``; the presets keep their method sets and lr x beta grids.
    """
    common = {"seeds": (seed,), "jobs": 1}
    if workload == "central_rosenbrock":
        return [("central", "rosenbrock_central",
                 dict(common, n=50, epochs=12, out_dir=f"{out_root}/central"))]
    if workload == "dist_rosenbrock":
        return [("dist", "rosenbrock_dist",
                 dict(common, n=100, epochs=5, out_dir=f"{out_root}/dist"))]
    if workload == "minibatch_logistic":
        # Inverse-sqrt steps make the epoch shift of the momentum methods
        # visible in the gamma column; the logistic presets default to
        # constant steps.
        logistic = dict(common, csv_path=csv_path, epochs=3, batch_size=4,
                        telemetry_stride=5, gamma_kind="inverse_sqrt")
        return [("central", "logistic_central",
                 dict(logistic, out_dir=f"{out_root}/central")),
                ("dist", "logistic_dist",
                 dict(logistic, out_dir=f"{out_root}/dist"))]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")



def full_sweeps(workload: str, seed: int, out_root: str, csv_path: str | None = None):
    """The full preset sweeps a workload stands for, in the form of :func:`sweeps`.

    These are the sizes of the reference figures: Rosenbrock at n=100 and
    15 epochs (1500 iterations or rounds per cell), logistic on
    ``FULL_LOGISTIC_ROWS`` rows with 8 epochs, 2 seeds and the presets'
    constant steps.  makeup.py compares a workload's layer shares with
    theirs; the benchmark itself never runs them.
    """
    common = {"seeds": (seed,), "jobs": 1}
    if workload == "central_rosenbrock":
        return [("central", "rosenbrock_central",
                 dict(common, n=100, epochs=15, out_dir=f"{out_root}/central"))]
    if workload == "dist_rosenbrock":
        return [("dist", "rosenbrock_dist",
                 dict(common, n=100, epochs=15, out_dir=f"{out_root}/dist"))]
    if workload == "minibatch_logistic":
        logistic = dict(common, seeds=(seed, seed + 1), csv_path=csv_path, epochs=8,
                        batch_size=4, telemetry_stride=5)
        return [("central", "logistic_central",
                 dict(logistic, out_dir=f"{out_root}/central")),
                ("dist", "logistic_dist",
                 dict(logistic, out_dir=f"{out_root}/dist"))]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
