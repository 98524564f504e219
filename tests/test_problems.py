"""Objective values, exact gradients, and the gradient checkers."""

import numpy as np
import pytest
from closed_forms import bowl_grad, bowl_value, softmax_grad, softmax_loss
from hypothesis import given, settings, strategies as st

from signshuffle import (
    LogisticProblem,
    RosenbrockSum,
    estimate_coordinate_smoothness,
    finite_diff_check,
    load_logistic_csv,
    make_logistic,
    make_rosenbrock,
    streams,
)


def small_problem(n=7, d=4, u_max=10.0, seed=3):
    return make_rosenbrock(n, d, u_max, seed)


def assert_stack_matches_points(p, xs, row_sets):
    """The oracle at a stack of points gives, bit for bit, what it gives at
    each point alone: row gradients, batch gradients, block gradients, values."""
    point = p.at(xs)
    for rows in (*row_sets, None):
        got = p.grads(point, rows)
        assert got.shape == (len(xs), p.parts, p.d)
        for x, g in zip(xs, got):
            np.testing.assert_array_equal(g, p.grads(p.at(x), rows))
    got = p.values(point)
    assert got.shape == (len(xs), p.parts)
    for x, v in zip(xs, got):
        np.testing.assert_array_equal(v, p.values(p.at(x)))


def value(p, x):
    """The whole problem's objective, read off the oracle."""
    whole = p.split()
    return whole.values(whole.at(x))[0]


class TestRosenbrockSum:
    def test_minimizer_is_exact_for_every_component(self):
        p = small_problem()
        ones = np.ones(p.d)
        assert value(p, ones) == 0.0
        np.testing.assert_array_equal(p.full_grad(ones), np.zeros(p.d))
        for i in range(p.n):
            assert p.component_value(i, ones) == 0.0
            np.testing.assert_array_equal(p.component_grad(i, ones), np.zeros(p.d))

    def test_component_value_matches_hand_formula(self):
        p = RosenbrockSum([2.0, 0.5], d=3, u_max=10.0)
        x = np.array([0.5, -1.0, 2.0])
        for i, b in enumerate((2.0, 0.5)):
            want = sum(b * (x[j + 1] - x[j] ** 2) ** 2 + (1.0 - x[j]) ** 2
                       for j in range(2))
            assert p.component_value(i, x) == pytest.approx(want, rel=1e-14)

    def test_value_is_mean_of_components(self):
        p = small_problem()
        x = np.linspace(-1.0, 2.0, p.d)
        mean = sum(p.component_value(i, x) for i in range(p.n)) / p.n
        assert value(p, x) == pytest.approx(mean, rel=1e-13)

    def test_full_grad_matches_component_accumulation(self):
        p = small_problem()
        x = np.linspace(-2.0, 1.5, p.d)
        acc = np.zeros(p.d)
        for b in p.b:
            acc += bowl_grad(b, x)
        np.testing.assert_allclose(p.full_grad(x), acc / p.n, rtol=1e-12)

    def test_batch_grad_matches_component_mean(self):
        p = small_problem()
        x = np.array([0.3, -0.7, 1.2, 0.0])
        want = (2 * bowl_grad(p.b[5], x) + bowl_grad(p.b[0], x)) / 3
        got = p.grads(p.at(x), np.array([[5, 0, 5]]))
        assert got.shape == (1, p.d)
        np.testing.assert_allclose(got[0], want, rtol=1e-12)

    def test_grads_and_values_hand_formula(self):
        b = np.array([2.0, 0.5, 1.0, 3.0])
        p = RosenbrockSum(b, d=3, u_max=10.0).split(2)
        x = np.array([0.5, -1.0, 2.0])
        point = p.at(x)
        rows = np.array([3, 0, 0])
        np.testing.assert_array_equal(p.grads(point, rows),
                                      [bowl_grad(b[r], x) for r in rows])
        batches = np.array([[0, 3], [2, 2]])
        np.testing.assert_allclose(p.grads(point, batches),
                                   [bowl_grad(2.5, x), bowl_grad(1.0, x)], rtol=1e-15)
        np.testing.assert_allclose(p.grads(point),
                                   [bowl_grad(1.25, x), bowl_grad(2.0, x)], rtol=1e-15)
        np.testing.assert_allclose(p.values(point),
                                   [bowl_value(1.25, x), bowl_value(2.0, x)], rtol=1e-15)
        # The conveniences read the whole sum whatever the block count.
        np.testing.assert_allclose(p.full_grad(x), bowl_grad(1.625, x), rtol=1e-15)
        np.testing.assert_array_equal(p.component_grad(3, x), bowl_grad(3.0, x))

    def test_stacked_points_match_single_points(self):
        p = small_problem(n=8).split(2)
        xs = np.random.default_rng(0).uniform(-2.0, 2.0, (5, p.d))
        assert_stack_matches_points(p, xs, (np.array([4, 1]), np.array([[0, 3], [5, 5]])))

    def test_split_keeps_the_rows(self):
        p = make_rosenbrock(6, 3, 10.0, 1)
        halves = p.split(2)
        assert (halves.parts, halves.n0, halves.n) == (2, 3, 6)
        assert (p.parts, p.n0) == (1, 6)
        assert halves.split(2) is halves
        np.testing.assert_array_equal(halves.split().full_grad(np.zeros(3)),
                                      p.full_grad(np.zeros(3)))
        with pytest.raises(ValueError):
            p.split(4)
        with pytest.raises(ValueError):
            p.split(0)

    def test_gradients_pass_finite_differences(self):
        p = small_problem()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, p.d)
            assert finite_diff_check(p, x, h=1e-6) < 1e-7

    def test_repeated_evaluation_is_stable(self):
        # Evaluating the same point twice, or an equal copy, reproduces the
        # gradient and value bit for bit.
        p = small_problem()
        x = np.array([0.1, 0.2, 0.3, 0.4])
        first = p.full_grad(x)
        np.testing.assert_array_equal(p.full_grad(x), first)
        assert value(p, x) == value(p, x)
        np.testing.assert_array_equal(p.full_grad(x.copy()), first)

    def test_component_scales_are_read_only(self):
        p = small_problem()
        with pytest.raises(ValueError):
            p.b[0] = 99.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RosenbrockSum([1.0], d=1, u_max=10.0)
        with pytest.raises(ValueError):
            RosenbrockSum([-0.1], d=2, u_max=10.0)
        with pytest.raises(ValueError):
            RosenbrockSum([11.0], d=2, u_max=10.0)
        with pytest.raises(ValueError):
            RosenbrockSum([], d=2, u_max=10.0)
        p = small_problem()
        with pytest.raises(IndexError):
            p.component_value(p.n, np.ones(p.d))
        with pytest.raises(IndexError):
            p.component_grad(-1, np.ones(p.d))
        with pytest.raises(ValueError):
            p.at(np.ones(p.d + 1))


class TestMakeRosenbrock:
    def test_deterministic_and_in_range(self):
        a = make_rosenbrock(50, 3, 10.0, seed=11)
        b = make_rosenbrock(50, 3, 10.0, seed=11)
        np.testing.assert_array_equal(a.b, b.b)
        assert a.b.shape == (50,)
        assert (a.b >= 0.0).all() and (a.b <= 10.0).all()

    def test_seed_changes_scales(self):
        a = make_rosenbrock(50, 3, 10.0, seed=11)
        c = make_rosenbrock(50, 3, 10.0, seed=12)
        assert not np.array_equal(a.b, c.b)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_rosenbrock(0, 3, 10.0, seed=1)
        with pytest.raises(ValueError):
            make_rosenbrock(5, 3, 0.0, seed=1)


def tiny_logistic():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]])
    y = np.array([0, 1, 2, 1])
    return LogisticProblem(X, y)


class TestLogisticProblem:
    def test_shapes_and_classes(self):
        p = tiny_logistic()
        assert (p.n, p.n_features, p.num_classes, p.d) == (4, 2, 3, 6)

    def test_uniform_prediction_at_zero(self):
        p = tiny_logistic()
        x = np.zeros(p.d)
        assert value(p, x) == pytest.approx(np.log(3.0), rel=1e-14)
        rows = p.split(p.n)
        np.testing.assert_allclose(rows.values(rows.at(x)), np.full(p.n, np.log(3.0)),
                                   rtol=1e-14)

    def test_component_grad_hand_formula(self):
        p = tiny_logistic()
        x = np.zeros(p.d)
        # With zero weights the softmax is uniform over the 3 classes.
        probs = np.full(3, 1.0 / 3.0)
        for i in range(p.n):
            resid = probs.copy()
            resid[p.labels[i]] -= 1.0
            want = np.outer(p.features[i], resid).ravel()
            np.testing.assert_allclose(p.component_grad(i, x), want, atol=1e-15)

    def test_grads_and_values_hand_formula(self):
        p = tiny_logistic().split(2)
        x = np.random.default_rng(3).normal(size=p.d)
        point = p.at(x)
        row_grads = [softmax_grad(p.features[i], p.labels[i], x) for i in range(p.n)]
        row_losses = [softmax_loss(p.features[i], p.labels[i], x) for i in range(p.n)]
        np.testing.assert_allclose(p.grads(point, np.array([3, 1])),
                                   [row_grads[3], row_grads[1]], rtol=1e-13)
        np.testing.assert_allclose(p.grads(point, np.array([[0, 2], [3, 3]])),
                                   [(row_grads[0] + row_grads[2]) / 2, row_grads[3]],
                                   rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(p.grads(point),
                                   [(row_grads[0] + row_grads[1]) / 2,
                                    (row_grads[2] + row_grads[3]) / 2], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(p.values(point),
                                   [(row_losses[0] + row_losses[1]) / 2,
                                    (row_losses[2] + row_losses[3]) / 2], rtol=1e-13)
        np.testing.assert_allclose(p.full_grad(x), np.mean(row_grads, axis=0),
                                   rtol=1e-13, atol=1e-15)

    def test_stacked_points_match_single_points(self):
        p = tiny_logistic().split(2)
        xs = np.random.default_rng(4).normal(size=(5, p.d))
        assert_stack_matches_points(p, xs, (np.array([2, 1]), np.array([[0, 3], [3, 3]])))
        for x, g in zip(xs, p.grads(p.at(xs), np.array([2]))[:, 0]):
            np.testing.assert_array_equal(g, p.component_grad(2, x))

    def test_gradients_pass_finite_differences(self):
        p = tiny_logistic()
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(size=p.d)
            assert finite_diff_check(p, x, h=1e-6) < 1e-7

    def test_value_matches_component_mean(self):
        p = tiny_logistic()
        x = np.random.default_rng(2).normal(size=p.d)
        mean = sum(softmax_loss(p.features[i], p.labels[i], x) for i in range(p.n)) / p.n
        assert value(p, x) == pytest.approx(mean, rel=1e-13)

    def test_validation(self):
        X = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            LogisticProblem(X, np.array([0.5]))
        with pytest.raises(ValueError):
            LogisticProblem(X, np.array([-1]))
        with pytest.raises(ValueError):
            LogisticProblem(X, np.array([3]), num_classes=2)
        with pytest.raises(ValueError):
            LogisticProblem(np.array([[np.inf, 0.0]]), np.array([0]))
        with pytest.raises(ValueError):
            tiny_logistic().at(np.zeros(5))


class TestMakeLogistic:
    def test_deterministic_per_seed(self):
        a, b = make_logistic(30, 4, 3, seed=7), make_logistic(30, 4, 3, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = make_logistic(30, 4, 3, seed=8)
        assert not np.array_equal(a.features, c.features)

    def test_shapes_and_labels(self):
        p = make_logistic(40, 5, 4, seed=2)
        assert (p.n, p.n_features, p.num_classes, p.d) == (40, 5, 4, 20)
        assert p.features.shape == (40, 5) and p.labels.shape == (40,)
        assert set(p.labels.tolist()) <= set(range(4))
        # The class count is the one asked for, even when a class is never drawn.
        assert make_logistic(1, 2, 6, seed=0).num_classes == 6

    def test_rows_are_class_centres_plus_noise(self):
        rng = streams.derive(3, streams.PROBLEM)
        labels = rng.integers(0, 3, 25)
        centres = rng.normal(0.0, 1.0, (3, 4))
        X = centres[labels] + rng.normal(0.0, 1.0, (25, 4))
        p = make_logistic(25, 4, 3, seed=3)
        np.testing.assert_array_equal(p.features, X)
        np.testing.assert_array_equal(p.labels, labels)

    def test_validation(self):
        for args in ((0, 4, 3), (5, 0, 3), (5, 4, 1)):
            with pytest.raises(ValueError):
                make_logistic(*args, seed=0)


# The logistic oracle in the form it had with one block at a time and
# numpy's class-axis reductions: the references of the class-count rule.
def _axis_row_grad(p, i, W):
    z = p.features[i] @ W
    z = z - z.max(axis=-1, keepdims=True)
    q = np.exp(z)
    q /= q.sum(axis=-1, keepdims=True)
    q[..., p.labels[i]] -= 1.0
    return (p.features[i][:, None] * q[..., None, :]).reshape(W.shape[:-2] + (p.d,))


def _axis_mean_grad(p, rows, W):
    X = p.features[rows]
    Z = X @ W
    Z = Z - Z.max(axis=-1, keepdims=True)
    P = np.exp(Z)
    P /= P.sum(axis=-1, keepdims=True)
    P[..., np.arange(rows.size), p.labels[rows]] -= 1.0
    return (X.T @ P).reshape(W.shape[:-2] + (p.d,)) / rows.size


def _axis_mean_loss(p, rows, W):
    Z = p.features[rows] @ W
    Z = Z - Z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(Z).sum(axis=-1))
    return (lse - Z[..., np.arange(rows.size), p.labels[rows]]).mean(axis=-1)


class TestClassCountRule:
    """Below 8 classes the softmax reduces over class slices, from 8 on over
    the class axis; either way every result keeps the bits of the axis form."""

    @pytest.mark.parametrize("classes", [2, 3, 5, 7, 8, 10])
    @pytest.mark.parametrize("parts", [1, 3])
    def test_oracle_matches_axis_form_bit_for_bit(self, classes, parts):
        whole = make_logistic(48, 5, classes, seed=classes)
        p = whole.split(parts)
        rng = np.random.default_rng(parts)
        blocks = [np.arange(m * p.n0, (m + 1) * p.n0) for m in range(parts)]
        singles = rng.integers(0, p.n0, parts) + p.n0 * np.arange(parts)
        batches = rng.integers(0, p.n0, (parts, 3)) + p.n0 * np.arange(parts)[:, None]
        for x in (rng.normal(0.0, 2.0, p.d), rng.normal(0.0, 2.0, (4, p.d))):
            point = p.at(x)

            def stacked(reference, entries):
                return np.stack([reference(p, e, point) for e in entries], axis=-2)

            block_grads = stacked(_axis_mean_grad, blocks)
            block_values = np.stack([_axis_mean_loss(p, b, point) for b in blocks], axis=-1)
            grads, values = p.grads_values(point)
            for got, want in [(p.grads(point, singles), stacked(_axis_row_grad, singles)),
                              (p.grads(point, np.arange(p.n)),
                               stacked(_axis_row_grad, range(p.n))),
                              (p.grads(point, batches), stacked(_axis_mean_grad, batches)),
                              (p.grads(point), block_grads), (grads, block_grads),
                              (p.values(point), block_values), (values, block_values)]:
                assert got.shape == want.shape
                assert np.array_equal(got, want)


class TestFiniteDiffCheck:
    def test_detects_a_wrong_gradient(self):
        class Broken(RosenbrockSum):
            def grads(self, point, rows=None):
                return 1.01 * super().grads(point, rows)

        good = small_problem()
        bad = Broken(good.b, good.d, good.u_max)
        x = np.array([0.4, -0.3, 1.1, 0.2])
        assert finite_diff_check(good, x, h=1e-6) < 1e-7
        assert finite_diff_check(bad, x, h=1e-6) > 1e-3
        assert finite_diff_check(bad, x, h=1e-6, samples=5) > 1e-3


class TestSmoothnessEstimate:
    def test_linear_gradient_recovers_exact_constant(self):
        # With all scales zero only the quadratic base term remains, whose
        # gradient is linear: slope exactly 2 in every coordinate but the
        # last, which never appears in the objective.
        p = RosenbrockSum([0.0, 0.0], d=4, u_max=1.0)
        est = estimate_coordinate_smoothness(p, (-1.0, 1.0), samples=20, safety=1.5)
        np.testing.assert_allclose(est[:-1], np.full(3, 3.0), rtol=1e-9)
        assert est[-1] == 0.0

    def test_safety_scales_linearly(self):
        p = small_problem()
        a = estimate_coordinate_smoothness(p, (-1.0, 1.0), samples=10, safety=1.0)
        b = estimate_coordinate_smoothness(p, (-1.0, 1.0), samples=10, safety=2.0)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_block_of_a_split_matches_its_own_problem(self, logistic_csv):
        # Block m of a split problem gives the bits of a problem holding only
        # that block's rows, the form tests/smoothness_digests.json pins.
        rosen = make_rosenbrock(12, 4, 10.0, seed=5)
        logistic = load_logistic_csv(logistic_csv)
        k = logistic.n // 3
        cases = [(rosen, (-1.5, 2.0),
                  [RosenbrockSum(rosen.b[4 * m:4 * (m + 1)], 4, 10.0) for m in range(3)]),
                 (logistic, (-1.0, 1.0),
                  [LogisticProblem(logistic.features[m * k:(m + 1) * k],
                                   logistic.labels[m * k:(m + 1) * k], logistic.num_classes)
                   for m in range(3)])]
        for whole, region, blocks in cases:
            split = whole.split(3)
            for m in range(3):
                got = estimate_coordinate_smoothness(split, region, 15, seed=m, block=m)
                want = estimate_coordinate_smoothness(blocks[m], region, 15, seed=m)
                assert got.tobytes() == want.tobytes()

    def test_validation(self):
        p = small_problem()
        with pytest.raises(ValueError):
            estimate_coordinate_smoothness(p, (1.0, -1.0), samples=5)
        with pytest.raises(ValueError):
            estimate_coordinate_smoothness(p, (-1.0, 1.0), samples=0)
        with pytest.raises(ValueError):
            estimate_coordinate_smoothness(p, (-1.0, 1.0), samples=5, block=1)


@given(d=st.integers(2, 6), seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_rosenbrock_gradient_property(d, seed):
    p = make_rosenbrock(5, d, 10.0, seed)
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, d)
    assert finite_diff_check(p, x, h=1e-6) < 1e-6
