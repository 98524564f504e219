"""Multi-worker runs: one finite sum split across workers, in lockstep.

Worker m holds block m of the rows.  Every inner iteration each worker
pushes a d-dimensional sign vector; the server combines them (coordinate
mean for the anchored methods by default, ternary majority vote for the
baselines) and every worker applies the same update to the shared iterate.
A ledger prices each round: sign payloads cost ``bytes_per_sign`` per
coordinate, a pulled mean costs ``bytes_per_float`` per coordinate.  The
rule is the update kernel of :mod:`signshuffle.optimizers`, so one worker
reproduces the centralized method bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import streams
from .optimizers import Method, run
from .problems import FiniteSumProblem, RosenbrockSum, make_rosenbrock
from .schedules import Schedule


def make_rosenbrock_workers(num_workers: int, n0: int, d: int, u_max: float,
                            seed: int) -> RosenbrockSum:
    """n0 components per worker, the scales of worker m drawn from its own stream."""
    if num_workers < 1:
        raise ValueError(f"num_workers must be at least 1, got {num_workers}")
    b = np.concatenate([
        make_rosenbrock(n0, d, u_max, streams.child_seed(seed, streams.PROBLEM, m)).b
        for m in range(num_workers)])
    return RosenbrockSum(b, d, u_max, seed).split(num_workers)


def dist_signrvr_run(workers: FiniteSumProblem, epochs: int, gamma: Schedule,
                     dthr: Schedule, *, master_seed: int, x0,
                     aggregation: str = "sign_average", **kw):
    """Distributed anchored variance-reduced sign method.

    Every worker walks its own permutation of its rows, pushes the sign of
    its semi-stochastic estimate and applies the aggregate while the iterate
    stays inside the freeze threshold.  Keyword arguments are those of
    :func:`~signshuffle.optimizers.run`.  Returns (final iterate, trace,
    communication ledger).
    """
    return run(workers, Method("shuffle", "anchored", "sign", aggregation), range(epochs),
               gamma, dthr, seed=master_seed, x0=x0, **kw)


def dist_signrvm_run(workers: FiniteSumProblem, epochs: int, gamma: Schedule,
                     dthr: Schedule, *, beta: float, master_seed: int, x0,
                     aggregation: str = "sign_average", **kw):
    """Distributed anchored method with per-worker momentum of the estimates.

    Each worker's momentum advances on every iteration, frozen ones
    included, and restarts at every anchor; it pushes the momentum's sign.
    """
    method = Method("shuffle", "anchored", "momentum", aggregation, beta=beta)
    return run(workers, method, range(epochs), gamma, dthr, seed=master_seed, x0=x0, **kw)
