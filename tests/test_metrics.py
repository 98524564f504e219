"""Norms, smoothing, and exact trace serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signshuffle import (
    CSV_HEADER,
    Trace,
    TraceRecord,
    csv_text,
    emit_csv,
    l1_norm,
    l2_norm,
    log10_series,
    moving_average,
    process_series,
    read_trace_csv,
)


def test_norms_hand_values():
    v = np.array([3.0, -4.0, 0.0])
    assert l1_norm(v) == 7.0
    assert l2_norm(v) == 5.0
    assert l1_norm(np.zeros(3)) == 0.0


def test_norms_reject_nan():
    with pytest.raises(FloatingPointError):
        l1_norm(np.array([1.0, np.nan]))
    with pytest.raises(FloatingPointError):
        l2_norm(np.array([np.nan]))


def test_moving_average_oracle():
    x = np.array([4.0, 2.0, 6.0, 0.0, 8.0])
    got = moving_average(x, window=3).smoothed
    want = np.array([4.0, 3.0, 4.0, 8.0 / 3.0, 14.0 / 3.0])
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_moving_average_window_one_is_identity():
    x = np.array([1.0, -2.0, 3.5])
    np.testing.assert_array_equal(moving_average(x, 1).smoothed, x)


def test_moving_average_wide_window_is_running_mean():
    x = np.array([2.0, 4.0, 9.0])
    got = moving_average(x, window=10).smoothed
    np.testing.assert_allclose(got, [2.0, 3.0, 5.0], rtol=1e-15)


def test_moving_average_empty_series():
    out = moving_average(np.array([]), 4)
    assert out.smoothed.size == 0


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
       st.integers(1, 50))
@settings(max_examples=80, deadline=None)
def test_moving_average_matches_naive(xs, window):
    x = np.array(xs)
    got = moving_average(x, window).smoothed
    want = np.array([x[max(0, k + 1 - window):k + 1].mean() for k in range(x.size)])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_log10_series_rejects_nonpositive():
    with pytest.raises(ValueError):
        log10_series([1.0, 0.0])
    with pytest.raises(ValueError):
        log10_series([-1.0])
    np.testing.assert_allclose(log10_series([1.0, 100.0]), [0.0, 2.0])


def test_process_series_transform_order_differs():
    # Smoothing log values and logging smoothed values are different
    # operations; both must match their own composition.
    x = np.array([1.0, 100.0, 1.0, 100.0])
    after = process_series(x, window=2, transform="log10", smooth_after_transform=True)
    before = process_series(x, window=2, transform="log10", smooth_after_transform=False)
    np.testing.assert_allclose(after.smoothed, moving_average(np.log10(x), 2).smoothed)
    np.testing.assert_allclose(before.smoothed, np.log10(moving_average(x, 2).smoothed))
    assert after.smoothed[1] == pytest.approx(1.0)
    assert before.smoothed[1] == pytest.approx(np.log10(50.5))


def test_process_series_validation():
    with pytest.raises(ValueError):
        process_series([1.0], window=0)
    with pytest.raises(ValueError):
        process_series([1.0], window=2, transform="sqrt")


def sample_trace():
    return Trace(t=[0, 0], i=[0, 1], f=[1.25, 0.1 + 0.2], grad_l1=[3.0, 1.0 / 3.0],
                 grad_l2=[2.0, np.pi], applied=[True, False], gamma=[0.1, 0.05],
                 d_threshold=[2.0, 0.5])


def test_trace_rows_are_records():
    trace = sample_trace()
    assert len(trace) == 2
    assert list(trace) == [
        TraceRecord(t=0, i=0, f=1.25, grad_l1=3.0, grad_l2=2.0,
                    applied=True, gamma=0.1, d_threshold=2.0),
        TraceRecord(t=0, i=1, f=0.1 + 0.2, grad_l1=1.0 / 3.0, grad_l2=np.pi,
                    applied=False, gamma=0.05, d_threshold=0.5),
    ]
    assert trace != Trace.stopped("sign: NaN entry in input")
    assert len(Trace.stopped("sign: NaN entry in input")) == 0


def test_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "trace.csv"
    trace = sample_trace()
    emit_csv(trace, path)
    back = read_trace_csv(path)
    assert back == trace
    # Floats survive exactly, including the ones without short decimal forms.
    assert back[1].f == 0.1 + 0.2
    assert back[1].grad_l2 == np.pi


def test_csv_emit_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(sample_trace(), a)
    emit_csv(sample_trace(), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == CSV_HEADER


def test_emitted_file_is_the_csv_text(tmp_path):
    path = tmp_path / "trace.csv"
    emit_csv(sample_trace(), path)
    assert path.read_bytes() == csv_text(sample_trace()).encode()
    assert csv_text(Trace.stopped("l1_norm: NaN entry")) == CSV_HEADER + "\n"
    assert csv_text(sample_trace()).splitlines()[2] == (
        "0,1,0.30000000000000004,0.33333333333333331,3.1415926535897931,"
        "0,0.050000000000000003,0.5")


def test_csv_read_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,the,header\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)
    path.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)
    with pytest.raises(OSError):
        read_trace_csv(tmp_path / "absent.csv")


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
@settings(max_examples=200, deadline=None)
def test_csv_float_round_trip_property(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("rt") / "one.csv"
    trace = Trace(t=[0], i=[0], f=[value], grad_l1=[abs(value)], grad_l2=[0.0],
                  applied=[True], gamma=[1.0], d_threshold=[1.0])
    emit_csv(trace, path)
    assert read_trace_csv(path)[0].f == value
