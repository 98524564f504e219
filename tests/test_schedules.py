"""Schedule closed forms, checked to the last bit where the contract says so."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signshuffle import Constant, InverseSqrt


def test_constant_is_flat():
    s = Constant(0.25)
    assert s.value_at(0, 0, 10) == 0.25
    assert s.value_at(7, 3, 10) == 0.25


def test_constant_rejects_bad_values():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            Constant(bad)


def test_inverse_sqrt_closed_form_exhaustive():
    # c0 / sqrt(n*t + i + 1) over every position of a 100x100 run, within
    # one ulp of the directly computed expression.
    n, epochs, c0 = 100, 100, 0.1
    s = InverseSqrt(c0)
    for t in range(epochs):
        for i in range(n):
            want = c0 / math.sqrt(n * t + i + 1)
            got = s.value_at(t, i, n)
            assert abs(got - want) <= math.ulp(want)


def test_inverse_sqrt_epoch_shift_closed_form():
    n, epochs, c0 = 50, 40, 2.0
    s = InverseSqrt(c0, epoch_shift=True)
    for t in range(epochs):
        for i in range(n):
            want = c0 / math.sqrt(n * (t + 1) + i + 1)
            got = s.value_at(t, i, n)
            assert abs(got - want) <= math.ulp(want)


def test_epoch_shift_skips_exactly_one_epoch():
    s0 = InverseSqrt(1.0)
    s1 = InverseSqrt(1.0, epoch_shift=True)
    n = 17
    for t in range(5):
        for i in range(n):
            assert s1.value_at(t, i, n) == s0.value_at(t + 1, i, n)


def test_inverse_sqrt_rejects_bad_scale():
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            InverseSqrt(bad)


def test_position_validation():
    s = InverseSqrt(1.0)
    with pytest.raises(ValueError):
        s.value_at(-1, 0, 10)
    with pytest.raises(ValueError):
        s.value_at(0, 10, 10)
    with pytest.raises(ValueError):
        s.value_at(0, -1, 10)
    with pytest.raises(ValueError):
        s.value_at(0, 0, 0)


@given(c0=st.floats(1e-6, 1e3), n=st.integers(1, 500),
       t=st.integers(0, 200), shift=st.booleans())
@settings(max_examples=100, deadline=None)
def test_inverse_sqrt_positive_and_nonincreasing(c0, n, t, shift):
    s = InverseSqrt(c0, epoch_shift=shift)
    prev = math.inf
    for i in range(min(n, 40)):
        v = s.value_at(t, i, n)
        assert 0.0 < v <= prev
        prev = v
    # Epoch boundary continues the same flattened decay.
    assert s.value_at(t + 1, 0, n) <= prev


@given(c0=st.floats(1e-6, 1e3), scales=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=5),
       n=st.integers(1, 60), t=st.integers(0, 200), shift=st.booleans())
@settings(max_examples=100, deadline=None)
def test_epoch_values_are_value_at_bit_for_bit(c0, scales, n, t, shift):
    # A whole epoch at once, and one value per row of a vector scale, each
    # equal to the lone scalar schedule's value_at.
    for schedule in (InverseSqrt(c0, epoch_shift=shift), Constant(c0)):
        assert schedule.epoch(t, n).tolist() == [schedule.value_at(t, i, n) for i in range(n)]
    vector = np.array(scales)
    for schedule, one in ((InverseSqrt(vector, epoch_shift=shift),
                           lambda c: InverseSqrt(c, epoch_shift=shift)),
                          (Constant(vector), Constant)):
        got = schedule.epoch(t, n)
        assert got.shape == (n, len(scales))
        for k, c in enumerate(scales):
            assert got[:, k].tolist() == [one(c).value_at(t, i, n) for i in range(n)]
        assert schedule.value_at(t, 0, n).tolist() == got[0].tolist()


def test_vector_scale_validation():
    for bad in ([], [[0.1]], [0.1, 0.0], [0.1, math.inf], [math.nan]):
        with pytest.raises(ValueError):
            Constant(np.array(bad))
        with pytest.raises(ValueError):
            InverseSqrt(np.array(bad))
