"""Stepsize and freeze-threshold schedules.

A schedule maps (epoch t, inner iteration i, iterations per epoch n) to a
strictly positive value.  The same objects drive both the stepsize and the
freeze threshold of the anchored methods.  A schedule whose scale is a
vector gives one value per row of the update kernel's iterate matrix, each
rounded exactly as a schedule of that row's scale alone would round it;
``epoch`` gives a whole epoch's values at once, with the same rounding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def _check_position(t: int, i: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"iterations per epoch must be at least 1, got {n}")
    if t < 0:
        raise ValueError(f"epoch index must be non-negative, got {t}")
    if not 0 <= i < n:
        raise ValueError(f"inner index {i} outside [0, {n})")


def _scale(value, what: str):
    """A positive finite scale, or a read-only 1-D array of them."""
    if isinstance(value, numbers.Real):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{what} must be positive and finite, got {value}")
        return value
    arr = np.array(value, dtype=float)
    if arr.ndim != 1 or arr.size < 1 or not (np.isfinite(arr) & (arr > 0)).all():
        raise ValueError(f"{what} must be positive and finite, got {value}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Constant:
    """Flat schedule: the same value at every position."""

    c: float | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _scale(self.c, "constant schedule value"))

    def value_at(self, t: int, i: int, n: int) -> float:
        _check_position(t, i, n)
        return self.c

    def epoch(self, t: int, n: int) -> np.ndarray:
        """The values at positions 0..n-1 of epoch t: shape (n,), or (n, K)
        for a vector scale."""
        _check_position(t, 0, n)
        return np.broadcast_to(self.c, (n,) + np.shape(self.c))


@dataclass(frozen=True)
class InverseSqrt:
    """Decay c0 / sqrt(n*t + i + 1) over the flattened iteration count.

    With ``epoch_shift`` the count starts one epoch ahead:
    c0 / sqrt(n*(t+1) + i + 1).  That variant pairs with the momentum
    methods, whose analysis keys the decay to the following epoch.
    """

    c0: float | np.ndarray
    epoch_shift: bool = False

    def __post_init__(self):
        object.__setattr__(self, "c0", _scale(self.c0, "decay scale c0"))

    def value_at(self, t: int, i: int, n: int) -> float:
        _check_position(t, i, n)
        if self.epoch_shift:
            k = n * (t + 1) + i + 1
        else:
            k = n * t + i + 1
        return self.c0 / math.sqrt(k)

    def epoch(self, t: int, n: int) -> np.ndarray:
        """The values at positions 0..n-1 of epoch t: shape (n,), or (n, K)
        for a vector scale; each rounds as :meth:`value_at` does."""
        _check_position(t, 0, n)
        first = n * (t + 1) + 1 if self.epoch_shift else n * t + 1
        roots = np.sqrt(np.arange(first, first + n, dtype=float))
        return self.c0 / roots.reshape((n,) + (1,) * np.ndim(self.c0))


Schedule = Constant | InverseSqrt
