"""Bound checkers probed with hand-built steps and live trajectories."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from signshuffle import (
    Constant,
    LemmaReport,
    Method,
    SignRVRState,
    check_descent,
    check_sign_markov,
    check_vr_bound,
    estimate_coordinate_smoothness,
    iterate_box,
    make_rosenbrock,
    markov_suite,
    run,
    signrvr_epoch,
)
from signshuffle.optimizers import StepDetail


def step(f_before=1.0, f_after=0.7, grad=(1.0, -2.0), direction=(1.0, -1.0),
         gamma=0.1, applied=True, d_threshold=0.5, stoch=None, x=None, y=None):
    grad = np.asarray(grad, dtype=float)
    return StepDetail(t=0, i=0, applied=applied, gamma=gamma,
                      d_threshold=d_threshold, dist_inf=0.0,
                      f_before=f_before, f_after=f_after,
                      grad_before=grad,
                      stoch_grad=grad if stoch is None else np.asarray(stoch, dtype=float),
                      direction=None if direction is None else np.asarray(direction, dtype=float),
                      momentum=None,
                      x=np.zeros(2) if x is None else np.asarray(x, dtype=float),
                      y=y)


class TestLemmaReport:
    def test_ok_and_line(self):
        good = LemmaReport("thing", 10, 0, 0.5)
        bad = LemmaReport("thing", 10, 2, -0.1, skipped=3)
        assert good.ok() and not bad.ok()
        assert "thing: 10 checks, 0 violations" in good.line()
        assert "skipped" not in good.line()
        assert "(skipped 3)" in bad.line()


class TestSignMarkov:
    def test_gaussian_noise_never_violates(self):
        rng = np.random.default_rng(0)
        b = np.array([1.5, -0.8, 0.3, -2.0])
        rep = check_sign_markov(b + rng.normal(0.0, 1.0, (5000, 4)), b)
        assert rep.lemma_id == "sign-markov"
        assert (rep.samples, rep.violations, rep.skipped) == (4, 0, 0)
        assert rep.worst_margin >= 0.0

    def test_zero_reference_coordinates_are_skipped(self):
        rng = np.random.default_rng(1)
        b = np.array([1.0, 0.0, -0.5])
        rep = check_sign_markov(b + rng.normal(0.0, 0.5, (500, 3)), b)
        assert rep.samples == 2 and rep.skipped == 1

    def test_all_zero_reference(self):
        rep = check_sign_markov(np.ones((200, 2)), np.zeros(2))
        assert (rep.samples, rep.skipped) == (0, 2)
        assert rep.worst_margin == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            check_sign_markov(np.ones((50, 2)), np.ones(2))
        with pytest.raises(ValueError):
            check_sign_markov(np.ones((200, 2)), np.ones(3))
        with pytest.raises(ValueError):
            check_sign_markov(np.ones(200), np.ones(1))


class TestVrBound:
    L = np.array([1.0, 1.0])

    def test_margins_and_counts(self):
        rows = [
            step(stoch=(1.3, -2.2)),                    # dev (0.3, 0.2), bound 1.0
            step(applied=False, stoch=(9.0, 9.0)),      # frozen, skipped
        ]
        rep = check_vr_bound(rows, self.L)
        assert rep.lemma_id == "vr-deviation"
        assert (rep.samples, rep.violations, rep.skipped) == (1, 0, 1)
        assert rep.worst_margin == pytest.approx(0.7)

    def test_violation_detected(self):
        rows = [step(stoch=(2.5, -2.0))]                 # dev (1.5, 0) over bound 1.0
        rep = check_vr_bound(rows, self.L)
        assert rep.violations == 1
        assert rep.worst_margin == pytest.approx(-0.5)

    def test_worker_deviation_field_wins(self):
        row = SimpleNamespace(applied=True, d_threshold=0.5,
                              worker_dev=np.array([0.1, 0.2]),
                              stoch_grad=np.array([99.0, 99.0]),
                              grad_before=np.array([0.0, 0.0]))
        rep = check_vr_bound([row], self.L)
        assert rep.violations == 0
        assert rep.worst_margin == pytest.approx(0.8)

    def test_tolerance_absorbs_rounding(self):
        bound = 2.0 * 1.0 * 0.5
        rows = [step(stoch=(1.0 + bound * (1.0 + 1e-12), -2.0))]
        assert check_vr_bound(rows, self.L).violations == 0

    def test_no_applied_steps(self):
        rep = check_vr_bound([step(applied=False)], self.L)
        assert (rep.samples, rep.skipped) == (0, 1)
        assert rep.worst_margin == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            check_vr_bound([step()], np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            check_vr_bound([step()], np.array([1.0, 1.0, 1.0]))


class TestDescent:
    L = np.array([1.0, 1.0])

    def test_aligned_step_margin(self):
        # rhs = -0.1*3 + 0.005*2 + 0 = -0.29 against an observed drop of 0.3.
        rep = check_descent([step()], self.L)
        assert rep.lemma_id == "signed-descent"
        assert (rep.samples, rep.violations) == (1, 0)
        assert rep.worst_margin == pytest.approx(0.01)

    def test_violation_detected(self):
        rep = check_descent([step(f_after=0.72)], self.L)
        assert rep.violations == 1
        assert rep.worst_margin == pytest.approx(-0.01)

    def test_mismatch_term(self):
        # Flipping the second direction adds 2*gamma*|g_2| = 0.4 of slack.
        rep = check_descent([step(f_after=1.1, direction=(1.0, 1.0))], self.L)
        assert rep.violations == 0
        assert rep.worst_margin == pytest.approx(0.11 - 0.1)

    def test_frozen_step_holds_trivially(self):
        rep = check_descent([step(f_after=1.0, direction=(0.0, 0.0), applied=False)], self.L)
        assert rep.violations == 0

    def test_magnitude_steps_are_rejected(self):
        with pytest.raises(ValueError):
            check_descent([step(direction=None)], self.L)

    def test_empty_details(self):
        rep = check_descent([], self.L)
        assert rep.samples == 0 and rep.worst_margin == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_descent([step()], np.array([1.0, 1.0, 1.0]))


class TestMarkovSuite:
    def test_three_models_all_clean(self):
        reports = markov_suite(samples=20_000, seed=4)
        assert [r.lemma_id for r in reports] == [
            "sign-markov[gaussian]", "sign-markov[uniform]", "sign-markov[student-t3]"]
        for rep in reports:
            assert rep.ok()
            assert rep.samples == 4

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            markov_suite(samples=10)


class TestIterateBox:
    def test_bounds_and_pad(self):
        rows = [step(x=(0.0, 1.0)), step(x=(-2.0, 0.5)), step(x=(1.0, 3.0))]
        lo, hi = iterate_box(rows, pad=0.25)
        np.testing.assert_array_equal(lo, [-2.25, 0.25])
        np.testing.assert_array_equal(hi, [1.25, 3.25])

    def test_validation(self):
        with pytest.raises(ValueError):
            iterate_box([])
        with pytest.raises(ValueError):
            iterate_box([step()], pad=-0.1)


def test_live_trajectory_passes_both_checks():
    # A short anchored run on the chained-bowl objective, bounded over its own
    # iterate box, must satisfy both trajectory bounds with margin.
    p = make_rosenbrock(12, 4, 10.0, seed=6)
    state = SignRVRState(x=np.full(4, -0.5), seed=3)
    detail = []
    for _ in range(3):
        signrvr_epoch(state, p, Constant(0.02), Constant(0.3), detail=detail)
    lo, hi = iterate_box(detail, pad=0.02)
    L = estimate_coordinate_smoothness(p, (lo, hi), samples=150, seed=0)
    assert check_vr_bound(detail, L).ok()
    assert check_descent(detail, L).ok()

    rr_detail = []
    run(p.split(), Method("shuffle", "component", "sign"), range(3), Constant(0.02),
        seed=3, x0=np.full(4, -0.5), detail=rr_detail)
    lo, hi = iterate_box(rr_detail, pad=0.02)
    L = estimate_coordinate_smoothness(p, (lo, hi), samples=150, seed=0)
    assert check_descent(rr_detail, L).ok()
