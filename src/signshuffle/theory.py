"""Empirical checks of the guarantees the sign methods lean on.

Each check consumes recorded trajectories (or raw samples) plus a
coordinate smoothness estimate and reports how often the corresponding
bound failed.  A healthy run reports zero violations; the reports are
deliberately cheap to print and compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one bound checked over many samples.

    ``worst_margin`` is the smallest slack (bound minus observed) seen; a
    negative value beyond tolerance is what counts as a violation.
    """

    lemma_id: str
    samples: int
    violations: int
    worst_margin: float
    skipped: int = 0

    def ok(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        tail = f" (skipped {self.skipped})" if self.skipped else ""
        return (f"{self.lemma_id}: {self.samples} checks, {self.violations} violations, "
                f"worst margin {self.worst_margin:.3e}{tail}")


def check_sign_markov(a_samples: Array, b: Array, rel_tol: float = 1e-9) -> LemmaReport:
    """Sign disagreement probability against the normalized mean deviation.

    For each coordinate with b_j != 0, the empirical rate of
    sign(a_j) != sign(b_j) over the sample rows must not exceed
    mean|a_j - b_j| / |b_j| plus three standard errors of the rate.
    Coordinates with b_j == 0 are skipped; fewer than 100 rows is an error.
    """
    a_samples = np.asarray(a_samples, dtype=float)
    b = np.asarray(b, dtype=float)
    if a_samples.ndim != 2:
        raise ValueError("a_samples must be a (rows, d) array")
    if b.shape != (a_samples.shape[1],):
        raise ValueError(f"b must have shape ({a_samples.shape[1]},), got {b.shape}")
    rows = a_samples.shape[0]
    if rows < 100:
        raise ValueError(f"need at least 100 sample rows, got {rows}")
    live = b != 0.0
    skipped = int((~live).sum())
    if not live.any():
        return LemmaReport("sign-markov", 0, 0, math.inf, skipped)
    bl = b[live]
    al = a_samples[:, live]
    rate = np.mean(np.sign(al) != np.sign(bl), axis=0)
    bound = np.mean(np.abs(al - bl), axis=0) / np.abs(bl)
    slack = 3.0 * np.sqrt(rate * (1.0 - rate) / rows)
    margin = bound + slack - rate
    tol = rel_tol * np.maximum(1.0, bound)
    violations = int((margin < -tol).sum())
    return LemmaReport("sign-markov", int(live.sum()), violations,
                       float(margin.min()), skipped)


def check_vr_bound(details, smoothness: Array, rel_tol: float = 1e-9) -> LemmaReport:
    """Deviation of the pushed estimate from the full gradient on applied steps.

    At any step where the update was applied, each coordinate of the
    deviation must stay within twice the coordinate smoothness times the
    freeze threshold in force at that step.  Frozen steps are skipped.
    """
    smoothness = np.asarray(smoothness, dtype=float)
    if smoothness.ndim != 1 or not np.all(np.isfinite(smoothness)) or np.any(smoothness < 0):
        raise ValueError("smoothness must be a 1-D array of finite non-negative values")
    checked = 0
    skipped = 0
    violations = 0
    worst = math.inf
    for step in details:
        if not step.applied:
            skipped += 1
            continue
        dev = getattr(step, "worker_dev", None)
        if dev is None:
            dev = np.abs(step.stoch_grad - step.grad_before)
        if dev.shape != smoothness.shape:
            raise ValueError(f"deviation shape {dev.shape} does not match "
                             f"smoothness shape {smoothness.shape}")
        bound = 2.0 * smoothness * step.d_threshold
        margin = bound - dev
        tol = rel_tol * np.maximum(1.0, bound)
        if (margin < -tol).any():
            violations += 1
        worst = min(worst, float(margin.min()))
        checked += 1
    if checked == 0:
        worst = math.inf
    return LemmaReport("vr-deviation", checked, violations, worst, skipped)


def check_descent(details, smoothness: Array, rel_tol: float = 1e-9) -> LemmaReport:
    """Single-step objective change against the signed descent bound.

    For a step x+ = x - gamma * dir with ternary dir, the change
    f(x+) - f(x) must not exceed
    -gamma * ||g||_1 + (gamma^2 / 2) * ||L||_1 + 2 * gamma * sum over
    mismatched coordinates of |g_j|, where a mismatch is dir_j differing
    from sign(g_j).  Frozen steps satisfy this trivially and are included.
    Only sign-style details qualify; magnitude steps have no ternary
    direction and raise.
    """
    smoothness = np.asarray(smoothness, dtype=float)
    if smoothness.ndim != 1 or not np.all(np.isfinite(smoothness)) or np.any(smoothness < 0):
        raise ValueError("smoothness must be a 1-D array of finite non-negative values")
    if not details:
        return LemmaReport("signed-descent", 0, 0, math.inf)
    for step in details:
        if getattr(step, "direction", None) is None:
            raise ValueError("descent check needs sign-step details with a ternary direction")
    grads = np.stack([step.grad_before for step in details])
    dirs = np.stack([step.direction for step in details])
    if grads.shape[1] != smoothness.shape[0]:
        raise ValueError(f"gradient dimension {grads.shape[1]} does not match "
                         f"smoothness dimension {smoothness.shape[0]}")
    gammas = np.array([step.gamma for step in details])
    lhs = np.array([step.f_after - step.f_before for step in details])
    abs_grads = np.abs(grads)
    mismatch = dirs != np.sign(grads)
    smooth_l1 = float(np.abs(smoothness).sum())
    rhs = (-gammas * abs_grads.sum(axis=1)
           + 0.5 * gammas ** 2 * smooth_l1
           + 2.0 * gammas * (abs_grads * mismatch).sum(axis=1))
    margin = rhs - lhs
    tol = rel_tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    violations = int((margin < -tol).sum())
    return LemmaReport("signed-descent", len(details), violations, float(margin.min()))


def markov_suite(samples: int = 100_000, seed: int = 0) -> list:
    """Monte-Carlo sign-probability checks on three synthetic noise models.

    A fixed mixed-sign reference vector is perturbed by Gaussian, uniform,
    and heavy-tailed Student-t (3 degrees of freedom) noise; each model
    gets its own report.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    rng = np.random.default_rng(seed)
    b = np.array([1.5, -0.8, 0.3, -2.0])
    shape = (samples, b.size)
    # Each model's noise is drawn just before its check, so that only one
    # model's samples are held at a time; the draws keep their order.
    models = (("gaussian", lambda: rng.normal(0.0, 1.0, shape)),
              ("uniform", lambda: rng.uniform(-1.5, 1.5, shape)),
              ("student-t3", lambda: rng.standard_t(3, shape)))
    return [replace(check_sign_markov(b + draw(), b), lemma_id=f"sign-markov[{name}]")
            for name, draw in models]


def iterate_box(details, pad: float = 0.0) -> tuple[Array, Array]:
    """Axis-aligned bounding box of the visited iterates, widened by pad.

    Pad by at least the largest step length so the segments between
    consecutive iterates stay inside the box the smoothness estimate
    covers.
    """
    if not details:
        raise ValueError("no step details to bound")
    if pad < 0:
        raise ValueError(f"pad must be non-negative, got {pad}")
    points = np.stack([step.x for step in details])
    return points.min(axis=0) - pad, points.max(axis=0) + pad
