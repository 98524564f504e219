"""Finite-sum objectives with exact per-component gradients.

All objectives have the form f(x) = (1/n) * sum_i f_i(x).  Besides the
per-component ``component_value`` / ``component_grad`` and the aggregate
``value`` / ``full_grad``, every problem can ``split`` its rows into equal
blocks, one per worker; the resulting :class:`Split` is the only view of a
problem that the update kernel uses.
"""

from __future__ import annotations

import csv

import numpy as np

from . import streams

Array = np.ndarray


class FiniteSumProblem:
    """Base class for objectives of the form f(x) = mean_i f_i(x)."""

    n: int
    d: int

    def component_value(self, i: int, x: Array) -> float:
        raise NotImplementedError

    def component_grad(self, i: int, x: Array) -> Array:
        raise NotImplementedError

    def value(self, x: Array) -> float:
        """Full objective, the arithmetic mean of the component values."""
        return float(sum(self.component_value(i, x) for i in range(self.n)) / self.n)

    def full_grad(self, x: Array) -> Array:
        """Full gradient, the coordinate-wise mean of the component gradients."""
        g = self.component_grad(0, x).copy()
        for i in range(1, self.n):
            g += self.component_grad(i, x)
        g /= self.n
        return g

    def rows(self, lo: int, hi: int) -> "FiniteSumProblem":
        """The finite sum over rows [lo, hi) alone, with local row indices."""
        raise NotImplementedError

    def split(self, parts: int = 1) -> "Split":
        """Row-batch oracle over ``parts`` equal blocks of consecutive rows."""
        raise NotImplementedError

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")

    def _check_point(self, x: Array) -> None:
        if x.shape != (self.d,):
            raise ValueError(f"expected point of shape ({self.d},), got {x.shape}")


class Split:
    """A finite sum cut into equal blocks of consecutive rows, one per worker.

    Block m holds rows [m * n0, (m + 1) * n0); a centralized run is the split
    into one block.  ``at`` evaluates what every row shares at an iterate,
    once per point; ``grads`` and ``values`` then read gradients and block
    objectives off that evaluation.
    """

    def __init__(self, problem: FiniteSumProblem, parts: int):
        if parts < 1:
            raise ValueError(f"parts must be at least 1, got {parts}")
        if problem.n % parts:
            raise ValueError(f"{problem.n} rows do not split evenly into {parts} parts")
        self.problem = problem
        self.parts = parts
        self.n0 = problem.n // parts
        self.d = problem.d

    def part(self, m: int) -> FiniteSumProblem:
        """Block m as a problem of its own."""
        return self.problem.rows(m * self.n0, (m + 1) * self.n0)

    def at(self, x: Array):
        raise NotImplementedError

    def grads(self, point, rows: Array | None = None) -> Array:
        """Mean gradients at an evaluated point, one row per entry of ``rows``.

        ``rows`` holds global row indices: 1-D for one component per entry,
        2-D for one batch per entry.  None gives each block's full gradient.
        """
        raise NotImplementedError

    def values(self, point):
        """Each block's objective at an evaluated point, one per block."""
        raise NotImplementedError


def _geometry(x: Array):
    """What every chained-bowl component shares at x: the gradients of the
    gap and base terms and their squared norms."""
    head = x[:-1]
    gap = x[1:] - head * head
    miss = 1.0 - head
    grad_gap = np.zeros(x.shape)
    grad_gap[:-1] = -4.0 * head * gap
    grad_gap[1:] += 2.0 * gap
    grad_base = np.zeros(x.shape)
    grad_base[:-1] = -2.0 * miss
    return grad_gap, grad_base, float(gap @ gap), float(miss @ miss)


class RosenbrockSum(FiniteSumProblem):
    """Finite sum of curved-valley bowls sharing the minimizer at all-ones.

    Component i is sum_j [ b_i * (x_{j+1} - x_j^2)^2 + (1 - x_j)^2 ] with a
    per-component curvature scale b_i.  Every component vanishes with zero
    gradient at the all-ones vector, so the full objective has a common
    global minimizer while the components disagree everywhere else.
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
        self.n = int(b.size)
        self.d = int(d)
        self.u_max = float(u_max)
        self.seed = int(seed)
        self._b_mean = float(b.mean())

    def component_value(self, i: int, x: Array) -> float:
        self._check_index(i)
        self._check_point(x)
        _, _, gap_sq, base_sq = _geometry(x)
        return self.b[i] * gap_sq + base_sq

    def component_grad(self, i: int, x: Array) -> Array:
        self._check_index(i)
        grad_gap, grad_base, _, _ = _geometry(x)
        return self.b[i] * grad_gap + grad_base

    def value(self, x: Array) -> float:
        self._check_point(x)
        _, _, gap_sq, base_sq = _geometry(x)
        return self._b_mean * gap_sq + base_sq

    def full_grad(self, x: Array) -> Array:
        grad_gap, grad_base, _, _ = _geometry(x)
        return self._b_mean * grad_gap + grad_base

    def batch_grad(self, indices, x: Array) -> Array:
        """Mean gradient over a batch of component indices."""
        indices = np.asarray(indices)
        if indices.size == 0:
            raise ValueError("batch_grad: empty index batch")
        grad_gap, grad_base, _, _ = _geometry(x)
        return float(self.b[indices].mean()) * grad_gap + grad_base

    def rows(self, lo: int, hi: int) -> "RosenbrockSum":
        return RosenbrockSum(self.b[lo:hi], self.d, self.u_max, self.seed)

    def split(self, parts: int = 1) -> "_RosenbrockSplit":
        return _RosenbrockSplit(self, parts)


class _RosenbrockSplit(Split):
    """Every gradient is scale * grad_gap + grad_base with the point's shared
    geometry; a block's full gradient and value use its mean scale."""

    def __init__(self, problem: RosenbrockSum, parts: int):
        super().__init__(problem, parts)
        n0 = self.n0
        self.b = problem.b
        self.block_b = [float(self.b[m * n0:(m + 1) * n0].mean()) for m in range(parts)]
        self._block_scales = np.array(self.block_b)[:, None]

    def at(self, x: Array):
        return _geometry(x)

    def grads(self, point, rows: Array | None = None) -> Array:
        grad_gap, grad_base, _, _ = point
        if rows is None:
            scale = self._block_scales
        elif rows.ndim == 1:
            scale = self.b[rows][:, None]
        else:
            scale = self.b[rows].mean(axis=1, keepdims=True)
        return scale * grad_gap + grad_base

    def values(self, point) -> list:
        _, _, gap_sq, base_sq = point
        return [b * gap_sq + base_sq for b in self.block_b]


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

    def _weights(self, x: Array) -> Array:
        self._check_point(x)
        return x.reshape(self.n_features, self.num_classes)

    def component_value(self, i: int, x: Array) -> float:
        self._check_index(i)
        z = self.features[i] @ self._weights(x)
        z = z - z.max()
        return float(np.log(np.exp(z).sum()) - z[self.labels[i]])

    def component_grad(self, i: int, x: Array) -> Array:
        self._check_index(i)
        return self._row_grad(i, self._weights(x))

    def value(self, x: Array) -> float:
        return self._mean_loss(0, self.n, self._weights(x))

    def full_grad(self, x: Array) -> Array:
        return self._mean_grad(np.arange(self.n), self._weights(x))

    def batch_grad(self, indices, x: Array) -> Array:
        """Mean gradient over a batch of component indices."""
        indices = np.asarray(indices)
        if indices.size == 0:
            raise ValueError("batch_grad: empty index batch")
        return self._mean_grad(indices, self._weights(x))

    def rows(self, lo: int, hi: int) -> "LogisticProblem":
        return LogisticProblem(self.features[lo:hi], self.labels[lo:hi], self.num_classes)

    def split(self, parts: int = 1) -> "_LogisticSplit":
        return _LogisticSplit(self, parts)

    # Single rows use the 1-D product features[i] @ W and batches the matrix
    # product; the two round differently, so each path keeps its own form.
    def _row_grad(self, i, W: Array) -> Array:
        z = self.features[i] @ W
        z = z - z.max()
        p = np.exp(z)
        p /= p.sum()
        p[self.labels[i]] -= 1.0
        return np.outer(self.features[i], p).ravel()

    def _mean_grad(self, rows: Array, W: Array) -> Array:
        X = self.features[rows]
        Z = X @ W
        Z = Z - Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        P[np.arange(rows.size), self.labels[rows]] -= 1.0
        return (X.T @ P).ravel() / rows.size

    def _mean_loss(self, lo: int, hi: int, W: Array) -> float:
        Z = self.features[lo:hi] @ W
        Z = Z - Z.max(axis=1, keepdims=True)
        lse = np.log(np.exp(Z).sum(axis=1))
        picked = Z[np.arange(hi - lo), self.labels[lo:hi]]
        return float((lse - picked).mean())


class _LogisticSplit(Split):
    """Evaluating a point only reshapes it into the weight matrix."""

    def __init__(self, problem: LogisticProblem, parts: int):
        super().__init__(problem, parts)
        self.blocks = [np.arange(m * self.n0, (m + 1) * self.n0) for m in range(parts)]

    def at(self, x: Array) -> Array:
        return self.problem._weights(x)

    def grads(self, W: Array, rows: Array | None = None) -> Array:
        p = self.problem
        if rows is None:
            return np.array([p._mean_grad(block, W) for block in self.blocks])
        if rows.ndim == 1:
            return np.array([p._row_grad(i, W) for i in rows])
        return np.array([p._mean_grad(batch, W) for batch in rows])

    def values(self, W: Array) -> Array:
        return np.array([self.problem._mean_loss(m * self.n0, (m + 1) * self.n0, W)
                         for m in range(self.parts)])


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
        except ValueError as exc:
            raise ValueError(f"{path}: row {k}: {exc}") from exc
        raw = float(row[-1])
        if raw != int(raw):
            raise ValueError(f"{path}: row {k}: label {row[-1]} is not an integer")
        labels[k] = int(raw)
    return LogisticProblem(feats, labels)


def finite_diff_check(problem: FiniteSumProblem, x: Array, h: float,
                      samples: int | None = None, seed: int = 0) -> float:
    """Worst relative error of analytic against centered-difference gradients.

    Compares component partial derivatives at x over (component, coordinate)
    pairs; all pairs when ``samples`` is None, otherwise a seeded random
    subset.  The error is measured relative to max(1, |analytic|) so that
    near-zero partials are judged on absolute terms.
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
    worst = 0.0
    grads: dict[int, Array] = {}
    for i, j in pairs:
        if i not in grads:
            grads[i] = problem.component_grad(i, x)
        lo = x.copy()
        hi = x.copy()
        lo[j] -= h
        hi[j] += h
        fd = (problem.component_value(i, hi) - problem.component_value(i, lo)) / (2.0 * h)
        err = abs(fd - grads[i][j]) / max(1.0, abs(grads[i][j]))
        if err > worst:
            worst = err
    return worst


def estimate_coordinate_smoothness(problem: FiniteSumProblem, region, samples: int,
                                   seed: int = 0, safety: float = 1.5,
                                   corner_probes: int = 4) -> Array:
    """Estimate per-coordinate gradient Lipschitz constants over a box.

    Probes sampled components at sampled points with single-coordinate
    perturbations (direct curvature) and with random sign-pattern
    displacements measured in the sup norm (cross-coordinate coupling).
    The per-coordinate maximum ratio |partial_j grad difference| / step is
    scaled by ``safety``.  The sup-norm probes matter: for coupled
    objectives the change in one partial under a full-vector displacement
    can exceed what any single-coordinate probe sees, and downstream
    trajectory checks bound deviations by the sup norm of the displacement.

    ``region`` is a (lo, hi) pair broadcastable to the problem dimension.
    Deterministic for a fixed seed; a single sample is a valid but noisy
    estimate.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    lo = np.broadcast_to(np.asarray(region[0], dtype=float), (problem.d,)).copy()
    hi = np.broadcast_to(np.asarray(region[1], dtype=float), (problem.d,)).copy()
    if not (hi > lo).all():
        raise ValueError("region is empty: need hi > lo in every coordinate")
    width = hi - lo
    rng = np.random.default_rng(seed)
    best = np.zeros(problem.d)
    for _ in range(samples):
        i = int(rng.integers(problem.n))
        x = rng.uniform(lo, hi)
        g0 = problem.component_grad(i, x)
        for j in range(problem.d):
            step = 0.5 * width[j] * 10.0 ** rng.uniform(-3.0, 0.0)
            direction = -1.0 if x[j] - lo[j] >= step else 1.0
            y = x.copy()
            y[j] += direction * step
            gj = problem.component_grad(i, y)[j]
            ratio = abs(gj - g0[j]) / abs(y[j] - x[j])
            if ratio > best[j]:
                best[j] = ratio
        for _ in range(corner_probes):
            pattern = rng.choice((-1.0, 1.0), size=problem.d)
            y = np.clip(x + pattern * 0.5 * width * 10.0 ** rng.uniform(-3.0, 0.0), lo, hi)
            denom = float(np.abs(y - x).max())
            if denom == 0.0:
                continue
            g1 = problem.component_grad(i, y)
            np.maximum(best, np.abs(g1 - g0) / denom, out=best)
    return safety * best
