"""Plain-numpy replay of the first epoch of Rosenbrock cells.

Built from the update rules in the ``signshuffle.optimizers`` and
``signshuffle.distributed`` docstrings and the stream derivation in
``signshuffle.streams``, without importing the package.  Every stream is
``default_rng(SeedSequence(seed, spawn_key=key))`` with the keys

- ``(0,)`` for the component scales b (``(0, m)`` folds a worker's seed),
- ``(1, worker, t)`` for the epoch-t permutation,
- ``(2, worker, t)`` for the with-replacement draws of the vote baselines.

The replayed rows must match the program's trace rows: (t, i) and
``applied`` exactly, gamma and d_threshold to 1 ulp, f and the gradient
norms to ``REPLAY_RTOL``.
"""

from __future__ import annotations

import math

import numpy as np

REPLAY_RTOL = 1e-9

REPLAYABLE = ("signrr", "signrvr", "dist_signrvr", "signsgd_mv")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def component_scales(seed: int, n: int, u_max: float) -> np.ndarray:
    return _rng(seed, 0).uniform(0.0, u_max, size=n)


def worker_seed(seed: int, m: int) -> int:
    """Problem seed of worker m: two 32-bit words of the (0, m) sequence."""
    hi, lo = np.random.SeedSequence(seed, spawn_key=(0, m)).generate_state(2)
    return (int(hi) << 32) | int(lo)


def rosen_value(b: float, x: np.ndarray) -> float:
    """sum_j b * (x_{j+1} - x_j^2)^2 + (1 - x_j)^2 for a scale (or mean scale) b."""
    gap = x[1:] - x[:-1] ** 2
    return float(np.sum(b * gap ** 2 + (1.0 - x[:-1]) ** 2))


def rosen_grad(b: float, x: np.ndarray) -> np.ndarray:
    """Gradient of :func:`rosen_value`, written out coordinate by coordinate."""
    gap = x[1:] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[:-1] = -4.0 * b * x[:-1] * gap - 2.0 * (1.0 - x[:-1])
    g[1:] += 2.0 * b * gap
    return g


def _row(i, f, grad, applied, gamma, dthr):
    return (0.0, float(i), f, float(np.abs(grad).sum()), math.sqrt(float(grad @ grad)),
            1.0 if applied else 0.0, gamma, dthr)


def _gamma(kind: str, lr: float, k: int) -> float:
    return lr if kind == "constant" else lr / math.sqrt(k)


def replay_epoch(algo: str, *, seed: int, n: int, d: int, u_max: float, lr: float,
                 gamma_kind: str, d0: float, workers: int = 1) -> np.ndarray:
    """Trace rows of epoch 0 from x0 = 0 with batch 1 and stride 1.

    ``d0`` is the constant freeze threshold of the anchored methods; n is
    the per-worker component count for the distributed methods.
    """
    if algo not in REPLAYABLE:
        raise ValueError(f"no replay for {algo!r}")
    dist = algo in ("dist_signrvr", "signsgd_mv")
    if dist:
        b = [component_scales(worker_seed(seed, m), n, u_max) for m in range(workers)]
        orders = [_rng(seed, 1, m, 0).permutation(n) for m in range(workers)]
        draws = [_rng(seed, 2, m, 0).integers(0, n, size=(n, 1)) for m in range(workers)]
    else:
        b = [component_scales(seed, n, u_max)]
        orders = [_rng(seed, 1, 0, 0).permutation(n)]
    b_mean = [float(bm.mean()) for bm in b]

    def global_value(x):
        return float(np.mean([rosen_value(bm, x) for bm in b_mean]))

    def global_grad(x):
        return np.mean([rosen_grad(bm, x) for bm in b_mean], axis=0)

    anchored = algo in ("signrvr", "dist_signrvr")
    x = np.zeros(d)
    y = x.copy()
    anchors = [rosen_grad(bm, y) for bm in b_mean]
    rows = []
    for i in range(n):
        lr_i = _gamma(gamma_kind, lr, i + 1)
        applied = True
        if algo == "signsgd_mv":
            picks = [int(draws[m][i, 0]) for m in range(workers)]
            signs = [np.sign(rosen_grad(b[m][k], x)) for m, k in enumerate(picks)]
            step = lr_i * np.sign(np.sum(signs, axis=0))
        else:
            picks = [int(orders[m][i]) for m in range(len(b))]
            if anchored:
                est = [rosen_grad(b[m][k], x) - rosen_grad(b[m][k], y) + anchors[m]
                       for m, k in enumerate(picks)]
                applied = float(np.abs(x - y).max()) <= d0
            else:
                est = [rosen_grad(b[0][picks[0]], x)]
            signs = [np.sign(e) for e in est]
            step = lr_i * (np.sum(signs, axis=0) / len(signs)) if applied else 0.0
        rows.append(_row(i, global_value(x), global_grad(x), applied, lr_i,
                         d0 if anchored else 0.0))
        x = x - step
    return np.array(rows)


def compare(replayed: np.ndarray, trace: np.ndarray) -> list:
    """Differences between replayed rows and the first rows of a trace."""
    if len(trace) < len(replayed):
        return [f"trace has {len(trace)} rows, replay {len(replayed)}"]
    got = trace[:len(replayed)]
    errors = []
    exact = (0, 1, 5)
    bad = (got[:, exact] != replayed[:, exact]).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        errors.append(f"row {k}: (t, i, applied) {got[k, exact].tolist()} vs replay "
                      f"{replayed[k, exact].tolist()}")
    sched = np.abs(got[:, 6:] - replayed[:, 6:]) > np.spacing(np.abs(replayed[:, 6:]))
    if sched.any():
        errors.append(f"row {int(np.argmax(sched.any(axis=1)))}: schedule differs from replay")
    vals = np.abs(got[:, 2:5] - replayed[:, 2:5]) > REPLAY_RTOL * np.maximum(
        1.0, np.abs(replayed[:, 2:5]))
    if vals.any():
        k = int(np.argmax(vals.any(axis=1)))
        errors.append(f"row {k}: f/grad_l1/grad_l2 {got[k, 2:5].tolist()} vs replay "
                      f"{replayed[k, 2:5].tolist()}")
    return errors
