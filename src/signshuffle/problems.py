"""Finite-sum objectives as row-batch oracles.

All objectives have the form f(x) = (1/n) * sum_i f_i(x), with the rows cut
into ``parts`` equal blocks of consecutive rows, one per worker; a
centralized run has one block.  Everything reads a problem through one
oracle: ``at`` evaluates what every row shares at a point, once per point,
and ``grads`` and ``values`` read row gradients and block objectives off
that evaluation.  ``split`` gives the same rows in another number of blocks.
"""

from __future__ import annotations

import copy
import csv

import numpy as np

from . import streams

Array = np.ndarray


class FiniteSumProblem:
    """Base class for objectives of the form f(x) = mean_i f_i(x).

    Block m holds rows [m * n0, (m + 1) * n0) of the ``parts`` blocks.
    """

    n: int
    d: int
    parts: int
    n0: int

    def at(self, x: Array):
        """Evaluate a point of shape (d,), or a stack of points of shape (K, d)."""
        raise NotImplementedError

    def grads(self, point, rows: Array | None = None) -> Array:
        """Mean gradients at an evaluated point, one row per entry of ``rows``.

        ``rows`` holds global row indices: 1-D for one component per entry,
        2-D for one batch per entry.  None gives each block's full gradient.
        The result has shape (entries, d) at a single point and
        (K, entries, d) at a stack of K points.
        """
        raise NotImplementedError

    def values(self, point) -> Array:
        """Each block's objective at an evaluated point: shape (parts,), or
        (K, parts) at a stack of K points."""
        raise NotImplementedError

    def split(self, parts: int = 1) -> "FiniteSumProblem":
        """The same rows in ``parts`` equal blocks."""
        if parts < 1:
            raise ValueError(f"parts must be at least 1, got {parts}")
        if self.n % parts:
            raise ValueError(f"{self.n} rows do not split evenly into {parts} parts")
        if parts == self.parts:
            return self
        view = copy.copy(self)
        view._cut(parts)
        return view

    def _cut(self, parts: int) -> None:
        """Lay the rows out in ``parts`` blocks; families add what a block shares."""
        self.parts = parts
        self.n0 = self.n // parts

    def component_grad(self, i: int, x: Array) -> Array:
        """Gradient of row i alone."""
        self._check_index(i)
        return self.grads(self.at(x), np.array([i]))[0]

    def full_grad(self, x: Array) -> Array:
        """Gradient of the whole finite sum, the mean over all rows."""
        whole = self.split()
        return whole.grads(whole.at(x))[0]

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")

    def _check_point(self, x: Array) -> None:
        if x.ndim not in (1, 2) or x.shape[-1] != self.d:
            raise ValueError(f"expected a point of shape ({self.d},) or a stack of "
                             f"shape (P, {self.d}), got {x.shape}")


class RosenbrockSum(FiniteSumProblem):
    """Finite sum of curved-valley bowls sharing the minimizer at all-ones.

    Component i is sum_j [ b_i * (x_{j+1} - x_j^2)^2 + (1 - x_j)^2 ] with a
    per-component curvature scale b_i.  Every component vanishes with zero
    gradient at the all-ones vector, so the full objective has a common
    global minimizer while the components disagree everywhere else.

    Every gradient is scale * grad_gap + grad_base over what all rows share
    at a point; a batch or a block uses its mean scale.
    """

    def __init__(self, b, d: int, u_max: float, seed: int = 0):
        b = np.asarray(b, dtype=float)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be a non-empty 1-D array")
        if d < 2:
            raise ValueError(f"d must be at least 2, got {d}")
        if not np.isfinite(b).all() or (b < 0).any():
            raise ValueError("b entries must be finite and non-negative")
        if float(b.max()) > u_max:
            raise ValueError("b entries must not exceed u_max")
        b.setflags(write=False)
        self.b = b
        self._scales = b[:, None]
        self.n = int(b.size)
        self.d = int(d)
        self.u_max = float(u_max)
        self.seed = int(seed)
        self._cut(1)

    def _cut(self, parts: int) -> None:
        super()._cut(parts)
        n0 = self.n0
        self.block_b = np.array([self.b[m * n0:(m + 1) * n0].mean() for m in range(parts)])

    def at(self, x: Array):
        """The gradients of the gap and base terms, and the terms themselves,
        each with an axis of length 1 for the blocks before the coordinates."""
        self._check_point(x)
        x = x[..., None, :]
        head = x[..., :-1]
        gap = x[..., 1:] - head * head
        miss = 1.0 - head
        grad_gap = np.zeros(x.shape)
        np.multiply(-4.0 * head, gap, out=grad_gap[..., :-1])
        grad_gap[..., 1:] += 2.0 * gap
        grad_base = np.zeros(x.shape)
        np.multiply(miss, -2.0, out=grad_base[..., :-1])
        return grad_gap, grad_base, gap, miss

    def grads(self, point, rows: Array | None = None) -> Array:
        grad_gap, grad_base, _, _ = point
        if rows is None:
            scale = self.block_b[:, None]
        elif rows.ndim == 1:
            scale = self._scales[rows]
        else:
            scale = self.b[rows].mean(axis=1, keepdims=True)
        return scale * grad_gap + grad_base

    def values(self, point) -> Array:
        # np.vecdot rounds each point's sum of squares as the 1-D product does.
        _, _, gap, miss = point
        return self.block_b * np.vecdot(gap, gap) + np.vecdot(miss, miss)

    def component_value(self, i: int, x: Array) -> float:
        """Row i's objective: a block value with row i's own scale."""
        self._check_index(i)
        _, _, (gap,), (miss,) = self.at(x)
        return float(self.b[i]) * float(gap @ gap) + float(miss @ miss)


def make_rosenbrock(n: int, d: int, u_max: float, seed: int) -> RosenbrockSum:
    """Draw component scales b_i ~ Uniform(0, u_max) from a dedicated stream.

    Args:
        n: number of components, at least 1.
        d: dimension, at least 2.
        u_max: upper end of the scale distribution, strictly positive.
        seed: master seed; the data stream is independent of any shuffling
            streams derived from the same seed.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if not u_max > 0:
        raise ValueError(f"u_max must be positive, got {u_max}")
    rng = streams.derive(seed, streams.PROBLEM)
    b = rng.uniform(0.0, u_max, size=n)
    return RosenbrockSum(b, d, u_max, seed)


class LogisticProblem(FiniteSumProblem):
    """Multinomial logistic regression over one linear map, flat parameters.

    The parameter vector has length n_features * n_classes and is reshaped
    to a (n_features, n_classes) weight matrix.  Component i is the
    cross-entropy loss of sample i, which is non-negative.
    """

    def __init__(self, features, labels, num_classes: int | None = None):
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-D array")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be 1-D with one entry per sample")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite")
        yi = y.astype(int)
        if not np.array_equal(yi, y):
            raise ValueError("labels must be integers")
        if (yi < 0).any():
            raise ValueError("labels must be non-negative")
        inferred = int(yi.max()) + 1
        C = max(2, inferred) if num_classes is None else int(num_classes)
        if C < 2:
            raise ValueError(f"num_classes must be at least 2, got {C}")
        if inferred > C:
            raise ValueError(f"label {int(yi.max())} outside [0, {C})")
        X.setflags(write=False)
        yi.setflags(write=False)
        self.features = X
        self.labels = yi
        self.num_classes = C
        self.n = int(X.shape[0])
        self.n_features = int(X.shape[1])
        self.d = self.n_features * C
        self._cut(1)

    def _cut(self, parts: int) -> None:
        super()._cut(parts)
        self.blocks = [np.arange(m * self.n0, (m + 1) * self.n0) for m in range(parts)]

    def at(self, x: Array) -> Array:
        """The weight matrix, or a stack of them."""
        self._check_point(x)
        return x.reshape(x.shape[:-1] + (self.n_features, self.num_classes))

    def grads(self, W: Array, rows: Array | None = None) -> Array:
        if rows is None:
            parts = [self._mean_grad(block, W) for block in self.blocks]
        elif rows.ndim == 1:
            parts = [self._row_grad(i, W) for i in rows]
        else:
            parts = [self._mean_grad(batch, W) for batch in rows]
        return np.stack(parts, axis=-2)

    def values(self, W: Array) -> Array:
        return np.stack([self._mean_loss(block, W) for block in self.blocks], axis=-1)

    # Single rows use the 1-D product features[i] @ W and batches the matrix
    # product; the two round differently, so each path keeps its own form.
    # A stack of weight matrices multiplies each matrix as a lone one would.
    def _row_grad(self, i, W: Array) -> Array:
        """Row i's gradient at W, or at each matrix of a stack: shape (..., d)."""
        z = self.features[i] @ W
        z = z - z.max(axis=-1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        p[..., self.labels[i]] -= 1.0
        return (self.features[i][:, None] * p[..., None, :]).reshape(W.shape[:-2] + (self.d,))

    def _mean_grad(self, rows: Array, W: Array) -> Array:
        X = self.features[rows]
        Z = X @ W
        Z = Z - Z.max(axis=-1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=-1, keepdims=True)
        P[..., np.arange(rows.size), self.labels[rows]] -= 1.0
        return (X.T @ P).reshape(W.shape[:-2] + (self.d,)) / rows.size

    def _mean_loss(self, rows: Array, W: Array):
        Z = self.features[rows] @ W
        Z = Z - Z.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(Z).sum(axis=-1))
        return (lse - Z[..., np.arange(rows.size), self.labels[rows]]).mean(axis=-1)


def load_logistic_csv(path, has_header: bool = False) -> LogisticProblem:
    """Build a LogisticProblem from a CSV of feature columns plus a label.

    Each row is real-valued features followed by one integer class label in
    the final column.  Set ``has_header`` when the first row must be skipped.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise OSError(f"reading samples from {path}: {exc}") from exc
    if has_header and rows:
        rows = rows[1:]
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if width < 2:
        raise ValueError(f"{path}: rows need at least one feature and a label")
    feats = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=int)
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {k} has {len(row)} columns, expected {width}")
        try:
            feats[k] = [float(v) for v in row[:-1]]
            raw = float(row[-1])
        except ValueError as exc:
            raise ValueError(f"{path}: row {k}: {exc}") from exc
        if not raw.is_integer():
            raise ValueError(f"{path}: row {k}: label {row[-1]} is not an integer")
        labels[k] = int(raw)
    return LogisticProblem(feats, labels)


def finite_diff_check(problem: FiniteSumProblem, x: Array, h: float,
                      samples: int | None = None, seed: int = 0) -> float:
    """Worst relative error of analytic against centered-difference gradients.

    Compares component partial derivatives at x over (component, coordinate)
    pairs; all pairs when ``samples`` is None, otherwise a seeded random
    subset.  Component values come from the rows split one per block.  The
    error is measured relative to max(1, |analytic|) so that near-zero
    partials are judged on absolute terms.
    """
    if not h > 0:
        raise ValueError(f"h must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    if samples is None:
        pairs = [(i, j) for i in range(problem.n) for j in range(problem.d)]
    else:
        if samples < 1:
            raise ValueError("samples must be at least 1")
        rng = np.random.default_rng(seed)
        pairs = [(int(rng.integers(problem.n)), int(rng.integers(problem.d)))
                 for _ in range(samples)]
    grads = problem.grads(problem.at(x), np.arange(problem.n))
    single = problem.split(problem.n)
    slopes: dict[int, Array] = {}
    worst = 0.0
    for i, j in pairs:
        if j not in slopes:
            step = np.zeros(problem.d)
            step[j] = h
            hi, lo = single.values(single.at(x + step)), single.values(single.at(x - step))
            slopes[j] = (np.asarray(hi) - np.asarray(lo)) / (2.0 * h)
        err = abs(slopes[j][i] - grads[i, j]) / max(1.0, abs(grads[i, j]))
        if err > worst:
            worst = err
    return worst


def estimate_coordinate_smoothness(problem: FiniteSumProblem, region, samples: int,
                                   seed: int = 0, safety: float = 1.5,
                                   corner_probes: int = 4, block: int = 0) -> Array:
    """Estimate per-coordinate gradient Lipschitz constants over a box.

    Probes sampled rows of block ``block`` at sampled points with
    single-coordinate perturbations (direct curvature) and with random
    sign-pattern displacements measured in the sup norm (cross-coordinate
    coupling).  The per-coordinate maximum ratio |partial_j grad difference|
    / step is scaled by ``safety``.  The sup-norm probes matter: for coupled
    objectives the change in one partial under a full-vector displacement
    can exceed what any single-coordinate probe sees, and downstream
    trajectory checks bound deviations by the sup norm of the displacement.

    ``region`` is a (lo, hi) pair broadcastable to the problem dimension.
    Deterministic for a fixed seed; a single sample is a valid but noisy
    estimate.  Each sample's probe points are evaluated in one oracle call.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not 0 <= block < problem.parts:
        raise ValueError(f"block must lie in [0, {problem.parts}), got {block}")
    d = problem.d
    lo = np.broadcast_to(np.asarray(region[0], dtype=float), (d,)).copy()
    hi = np.broadcast_to(np.asarray(region[1], dtype=float), (d,)).copy()
    if not (hi > lo).all():
        raise ValueError("region is empty: need hi > lo in every coordinate")
    width = hi - lo
    rng = np.random.default_rng(seed)
    best = np.zeros(d)
    # Row 0 is the sampled point, row 1 + j its probe along coordinate j, the
    # last rows its sign-pattern probes.
    points = np.empty((1 + d + corner_probes, d))
    coords = np.arange(d)
    signs = np.array((-1.0, 1.0))
    # The draws below are those of one scalar draw per coordinate and of
    # rng.choice over ``signs``, in the same order; powers stay Python floats.
    for _ in range(samples):
        row = np.array([block * problem.n0 + int(rng.integers(problem.n0))])
        x = rng.uniform(lo, hi)
        points[:] = x
        steps = 0.5 * width * np.array([10.0 ** u for u in rng.uniform(-3.0, 0.0, d).tolist()])
        points[1 + coords, coords] += np.where(x - lo >= steps, -1.0, 1.0) * steps
        for k in range(corner_probes):
            pattern = signs[rng.integers(0, 2, size=d)]
            points[1 + d + k] = np.clip(
                x + pattern * 0.5 * width * 10.0 ** rng.uniform(-3.0, 0.0), lo, hi)
        g = problem.grads(problem.at(points), row)[:, 0]
        g0 = g[0]
        ratio = np.abs(g[1 + coords, coords] - g0) / np.abs(points[1 + coords, coords] - x)
        best = np.where(ratio > best, ratio, best)
        denom = np.abs(points[1 + d:] - x).max(axis=1)
        moved = denom != 0.0
        corner = np.abs(g[1 + d:][moved] - g0) / denom[moved, None]
        np.maximum(best, corner.max(axis=0, initial=0.0), out=best)
    return safety * best
