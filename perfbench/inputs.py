"""Seeded input generation for the benchmark.

The program only reads the files written here; it is never told the seed.
"""

from __future__ import annotations

import numpy as np


def logistic_data(seed: int, rows: int, features: int, classes: int):
    """Class-conditional Gaussian features: one unit-variance cloud per class.

    Returns (X, y) with X of shape (rows, features) and integer labels y.
    """
    rng = np.random.default_rng([seed, 1])
    y = rng.integers(0, classes, rows)
    centers = rng.normal(0.0, 1.0, (classes, features))
    X = centers[y] + rng.normal(0.0, 1.0, (rows, features))
    return X, y


def write_logistic_csv(path, X, y) -> None:
    """Features first, then the label, with round-trip exact floats."""
    np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",")


def read_logistic_csv(path):
    """Parse a CSV written by :func:`write_logistic_csv` back into (X, y)."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    return data[:, :-1], data[:, -1].astype(int)
