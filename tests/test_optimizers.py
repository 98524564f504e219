"""The update kernel checked against independent step-by-step replays."""

import numpy as np
import pytest
from closed_forms import bowl_grad, bowl_value
from hypothesis import example, given, settings, strategies as st

from signshuffle import (
    Constant,
    InverseSqrt,
    LogisticProblem,
    Method,
    SignRVMState,
    SignRVRState,
    bias_correct,
    make_rosenbrock,
    run,
    shuffle,
    sign,
    signrvm_epoch,
    signrvr_epoch,
    streams,
)

N, D, SEED = 6, 3, 17
X0 = (0.2, -0.4, 1.1)
SIGNRR = Method("shuffle", "component", "sign")


def problem():
    return make_rosenbrock(N, D, 10.0, seed=2)


def full_grad(p, x):
    return bowl_grad(float(p.b.mean()), x)


def value(p, x):
    return bowl_value(float(p.b.mean()), x)


def start(cls=SignRVRState, **kw):
    return cls(x=np.array(X0), seed=SEED, **kw)


def central(method, p, gamma, epochs=1, x0=X0, **kw):
    """(final iterate, records, ledger) of a single-machine run from epoch 0."""
    return run(p.split(), method, range(epochs), gamma, seed=SEED, x0=np.array(x0), **kw)


def test_sign_semantics():
    np.testing.assert_array_equal(sign([3.0, -0.5, 0.0, -0.0]), [1.0, -1.0, 0.0, 0.0])
    with pytest.raises(FloatingPointError):
        sign([1.0, np.nan])


class TestSignRR:
    def test_matches_manual_replay(self):
        p = problem()
        x_run, _, _ = central(SIGNRR, p, Constant(0.05), epochs=3)
        x = np.array(X0)
        for t in range(3):
            for k in shuffle(N, t, SEED).order:
                x = x - 0.05 * sign(bowl_grad(p.b[k], x))
        np.testing.assert_array_equal(x_run, x)

    def test_batched_replay(self):
        p = problem()
        x_run, _, _ = central(SIGNRR, p, Constant(0.1), batch_size=4)
        order = shuffle(N, 0, SEED).order
        x = np.array(X0)
        for batch in (order[:4], order[4:]):
            x = x - 0.1 * sign(bowl_grad(float(p.b[batch].mean()), x))
        np.testing.assert_array_equal(x_run, x)

    def test_trace_fields(self):
        p = problem()
        _, recs, ledger = central(SIGNRR, p, InverseSqrt(0.1))
        assert len(recs) == N
        first = recs[0]
        assert (first.t, first.i, first.applied, first.d_threshold) == (0, 0, True, 0.0)
        assert first.f == value(p, np.array(X0))
        assert first.gamma == 0.1 / np.sqrt(1.0)
        assert recs[3].gamma == 0.1 / np.sqrt(4.0)
        assert ledger.total() == 0

    def test_telemetry_stride(self):
        p = problem()
        _, recs, _ = central(SIGNRR, p, Constant(0.1), telemetry_stride=3)
        assert [r.i for r in recs] == [0, 3]
        detail = []
        central(SIGNRR, p, Constant(0.1), telemetry_stride=3, detail=detail)
        assert len(detail) == N

    def test_validation(self):
        p = problem()
        with pytest.raises(ValueError):
            central(SIGNRR, p, Constant(0.1), telemetry_stride=0)
        with pytest.raises(ValueError):
            central(SIGNRR, p, Constant(0.1), batch_size=0)
        with pytest.raises(ValueError):
            central(SIGNRR, p, Constant(0.1), x0=np.zeros(D + 1))
        with pytest.raises(ValueError):
            central(SIGNRR, p, Constant(0.1), epochs=0)


class TestSignRVR:
    def test_anchor_cancellation_is_bit_exact(self):
        p = problem()
        detail = []
        signrvr_epoch(start(SignRVRState), p, Constant(0.05), Constant(2.0), detail=detail)
        # At the first inner iteration x equals the anchor, so the component
        # difference cancels and the estimate IS the anchor gradient.
        np.testing.assert_array_equal(detail[0].y, X0)
        np.testing.assert_array_equal(detail[0].stoch_grad, full_grad(p, detail[0].y))

    def test_detail_values_bracket_each_step(self):
        p = problem()
        detail = []
        state = start(SignRVRState)
        for _ in range(2):
            signrvr_epoch(state, p, Constant(0.05), Constant(0.08), detail=detail)
        for row, nxt in zip(detail, detail[1:]):
            assert row.f_before == value(p, row.x)
            assert row.f_after == value(p, nxt.x)
            np.testing.assert_array_equal(row.grad_before, full_grad(p, row.x))
            np.testing.assert_array_equal(row.worker_dev,
                                          np.abs(row.stoch_grad - row.grad_before))
        assert detail[-1].f_after == value(p, state.x)

    def test_matches_manual_replay(self):
        p = problem()
        st_ = start(SignRVRState)
        x = st_.x.copy()
        lr, cap = 0.05, 0.08
        for t in range(2):
            signrvr_epoch(st_, p, Constant(lr), Constant(cap))
            y = x
            anchor = full_grad(p, y)
            for k in shuffle(N, t, SEED).order:
                v = (bowl_grad(p.b[k], x) - bowl_grad(p.b[k], y)) + anchor
                if np.abs(x - y).max() <= cap:
                    x = x - lr * sign(v)
        np.testing.assert_array_equal(st_.x, x)

    def test_freeze_halts_iterate_exactly(self):
        p = problem()
        detail = []
        st_ = start(SignRVRState)
        x0 = st_.x.copy()
        signrvr_epoch(st_, p, Constant(0.05), Constant(1e-12), detail=detail)
        # Step 0 starts at the anchor (distance zero, applied); every later
        # iteration sits 0.05 away and freezes.
        assert detail[0].applied
        assert all(not row.applied for row in detail[1:])
        for row in detail[1:]:
            np.testing.assert_array_equal(row.direction, np.zeros(D))
            np.testing.assert_array_equal(row.x, detail[1].x)
        np.testing.assert_array_equal(st_.x, x0 - 0.05 * sign(detail[0].stoch_grad))

    def test_freeze_boundary_is_inclusive(self):
        p = problem()
        detail = []
        # Dyadic start and step keep the distance arithmetic exact: after one
        # step the sup distance equals the cap bit for bit, and the update at
        # the boundary must still apply.
        state = SignRVRState(x=np.array([0.25, -0.5, 1.0]), seed=SEED)
        signrvr_epoch(state, p, Constant(0.25), Constant(0.25), detail=detail)
        assert detail[1].dist_inf == 0.25
        assert detail[1].applied

    def test_detail_is_consistent(self):
        p = problem()
        detail = []
        signrvr_epoch(start(SignRVRState), p, Constant(0.03), Constant(0.06), detail=detail)
        for row in detail:
            assert row.dist_inf == float(np.abs(row.x - row.y).max())
            assert row.applied == (row.dist_inf <= row.d_threshold)


class TestSignRVM:
    def run_detail(self, epochs=2, beta=0.6, cap=2.0):
        p = problem()
        st_ = start(SignRVMState, beta=beta)
        detail = []
        for _ in range(epochs):
            signrvm_epoch(st_, p, Constant(0.05), Constant(cap), detail=detail)
        return st_, detail

    def test_momentum_replays_from_estimates(self):
        st_, detail = self.run_detail()
        beta = st_.beta
        mom = None
        for row in detail:
            if row.i == 0:
                mom = np.zeros(D)
            mom = beta * mom + (1.0 - beta) * row.stoch_grad
            np.testing.assert_array_equal(row.momentum, mom)

    def test_direction_is_sign_of_momentum(self):
        _, detail = self.run_detail()
        for row in detail:
            if row.applied:
                np.testing.assert_array_equal(row.direction, sign(row.momentum))

    def test_momentum_advances_while_frozen(self):
        _, detail = self.run_detail(epochs=1, cap=1e-12)
        frozen = [row for row in detail if not row.applied]
        assert len(frozen) == N - 1
        for a, b in zip(frozen, frozen[1:]):
            assert not np.array_equal(a.momentum, b.momentum)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            start(SignRVMState, beta=1.0)
        with pytest.raises(ValueError):
            start(SignRVMState, beta=0.0)


class TestBaselines:
    def replay_draws(self, t):
        return streams.derive(SEED, streams.SAMPLE, 0, t).integers(0, N, size=(N, 1))

    def test_sgd_replay(self):
        p = problem()
        x_run, _, _ = central(Method("draw", "component", "raw"), p, Constant(0.01),
                              epochs=2)
        x = np.array(X0)
        for t in range(2):
            for k in self.replay_draws(t)[:, 0]:
                x = x - 0.01 * bowl_grad(p.b[k], x)
        np.testing.assert_array_equal(x_run, x)

    def test_rr_walks_the_permutation(self):
        p = problem()
        x_run, _, _ = central(Method("shuffle", "component", "raw"), p, Constant(0.01))
        x = np.array(X0)
        for k in shuffle(N, 0, SEED).order:
            x = x - 0.01 * bowl_grad(p.b[k], x)
        np.testing.assert_array_equal(x_run, x)

    def test_signsgd_replay(self):
        p = problem()
        x_run, _, _ = central(Method("draw", "component", "sign"), p, Constant(0.05))
        x = np.array(X0)
        for k in self.replay_draws(0)[:, 0]:
            x = x - 0.05 * sign(bowl_grad(p.b[k], x))
        np.testing.assert_array_equal(x_run, x)

    def test_signum_momentum_persists_across_epochs(self):
        p = problem()
        beta = 0.7
        detail = []
        x_run, _, _ = central(Method("draw", "component", "momentum", beta=beta), p,
                              Constant(0.05), epochs=2, detail=detail)
        x = np.array(X0)
        m = np.zeros(D)
        for t in range(2):
            for k in self.replay_draws(t)[:, 0]:
                g = bowl_grad(p.b[k], x)
                m = beta * m + (1.0 - beta) * g
                x = x - 0.05 * sign(m)
        np.testing.assert_array_equal(x_run, x)
        np.testing.assert_array_equal(detail[-1].momentum, m)

    def test_adam_matches_reference(self):
        p = problem()
        beta, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        x_run, _, _ = central(Method("draw", "component", "adam", beta=beta, beta2=beta2,
                                     eps=eps), p, Constant(lr), epochs=2)
        x = np.array(X0)
        m = np.zeros(D)
        v = np.zeros(D)
        steps = 0
        for t in range(2):
            for k in self.replay_draws(t)[:, 0]:
                g = bowl_grad(p.b[k], x)
                m = beta * m + (1.0 - beta) * g
                v = beta2 * v + (1.0 - beta2) * g * g
                steps += 1
                m_hat = m / (1.0 - beta ** steps)
                v_hat = v / (1.0 - beta2 ** steps)
                x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        np.testing.assert_array_equal(x_run, x)

    def test_bias_correction_state_is_global(self):
        # Restarting at epoch 1 from the same iterate resets the step
        # counter, so the debiasing factors differ from a continued run
        # even though the sampled indices coincide.
        p = problem()
        adam = Method("draw", "component", "adam")
        cont, _, _ = central(adam, p, Constant(0.01), epochs=2)
        first, _, _ = central(adam, p, Constant(0.01))
        restart, _, _ = run(p.split(), adam, range(1, 2), Constant(0.01), seed=SEED,
                            x0=first)
        assert not np.array_equal(cont, restart)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Method("draw", "component", "sign_of_sum")
        with pytest.raises(ValueError):
            Method("sweep", "component", "sign")
        with pytest.raises(ValueError):
            # Without an aggregator the run can hold only one block.
            run(make_rosenbrock(N, D, 10.0, 2).split(2), SIGNRR, range(1), Constant(0.1),
                seed=SEED, x0=np.zeros(D))

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            Method("draw", "component", "momentum", beta=1.5)


class TestBiasCorrect:
    def test_closed_form(self):
        q = np.array([2.0, -4.0])
        out = bias_correct(q, beta=0.5, i=0)
        np.testing.assert_allclose(out, q / 0.5)
        out = bias_correct(q, beta=0.5, i=2)
        np.testing.assert_allclose(out, q / (1.0 - 0.125))

    def test_sign_invariance_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.normal(size=8)
            q[rng.integers(8)] = 0.0
            beta = rng.uniform(0.05, 0.95)
            i = int(rng.integers(0, 50))
            np.testing.assert_array_equal(sign(bias_correct(q, beta, i)), sign(q))

    def test_validation(self):
        with pytest.raises(ValueError):
            bias_correct(np.ones(2), beta=1.0, i=0)
        with pytest.raises(ValueError):
            bias_correct(np.ones(2), beta=0.5, i=-1)


@given(cap=st.floats(1e-6, 0.5), lr=st.floats(1e-4, 0.2),
       seed=st.integers(0, 500), beta=st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_freeze_invariant_property(cap, lr, seed, beta):
    # On every inner iteration of the anchored methods: applied if and only
    # if the sup distance to the anchor is within the cap, frozen iterations
    # leave the iterate bit-identical, and distances are honest.
    p = make_rosenbrock(5, 3, 10.0, seed=1)
    for maker, kw in ((SignRVRState, {}), (SignRVMState, {"beta": beta})):
        state = maker(x=np.array([0.1, 0.5, -0.3]), seed=seed, **kw)
        detail = []
        if maker is SignRVRState:
            signrvr_epoch(state, p, Constant(lr), Constant(cap), detail=detail)
        else:
            signrvm_epoch(state, p, Constant(lr), Constant(cap), detail=detail)
        prev_x = None
        for row in detail:
            assert row.applied == (row.dist_inf <= row.d_threshold)
            assert row.dist_inf == float(np.abs(row.x - row.y).max())
            if prev_x is not None and not prev_row.applied:
                np.testing.assert_array_equal(row.x, prev_x)
            prev_x, prev_row = row.x, row


# The cell axis: a K-row run is K one-row runs, bit for bit.

DIRECTIONS = ("raw", "sign", "momentum", "adam")


def cell_problem(family, parts, seed):
    """Six rows per block of a Rosenbrock sum (d=3) or a logistic problem (d=6)."""
    n = 6 * parts
    if family == "rosenbrock":
        return make_rosenbrock(n, 3, 10.0, seed).split(parts)
    rng = np.random.default_rng(seed)
    return LogisticProblem(rng.normal(size=(n, 2)), rng.integers(0, 3, n), 3).split(parts)


@given(family=st.sampled_from(("rosenbrock", "logistic")), parts=st.sampled_from((1, 3)),
       batch=st.sampled_from((1, 3)), stride=st.sampled_from((1, 4)),
       sampler=st.sampled_from(("shuffle", "draw")), anchored=st.booleans(),
       direction=st.sampled_from(DIRECTIONS), vote=st.booleans(), decay=st.booleans(),
       lrs=st.lists(st.sampled_from((1e-3, 0.05, 0.3, 40.0)), min_size=1, max_size=4),
       betas=st.lists(st.floats(0.05, 0.95), min_size=4, max_size=4),
       far=st.lists(st.booleans(), min_size=4, max_size=4), seed=st.integers(0, 50))
@settings(max_examples=80, deadline=None)
@example(family="rosenbrock", parts=1, batch=1, stride=1, sampler="draw", anchored=False,
         direction="raw", vote=False, decay=False, lrs=[40.0, 1e-3, 40.0],
         betas=[0.9] * 4, far=[False] * 4, seed=SEED)
def test_rows_run_as_lone_runs(family, parts, batch, stride, sampler, anchored, direction,
                               vote, decay, lrs, betas, far, seed):
    # Rows stop at a NaN and their siblings run on: raw steps of 40 overflow
    # on the Rosenbrock sum, and a Rosenbrock start at 1e155 squares to
    # infinity, so its first gradient holds a NaN.
    if parts > 1 and direction in ("raw", "adam"):
        direction = "sign"
    aggregator = ("identity" if parts == 1 else
                  "majority_vote" if vote and not anchored else "sign_average")
    problem = cell_problem(family, parts, seed)
    schedule = InverseSqrt if decay else Constant
    estimator = "anchored" if anchored else "component"
    betas = tuple(betas[:len(lrs)])
    x0 = np.array([np.linspace(-0.5, 0.8, problem.d) * (1e155 if f else 1.0)
                   for f in far[:len(lrs)]])
    kw = dict(seed=seed, batch_size=batch, telemetry_stride=stride)
    with np.errstate(all="ignore"):
        xs, traces, ledger = run(problem, Method(sampler, estimator, direction, aggregator,
                                                 beta=betas),
                                 range(3), schedule(np.array(lrs)), Constant(0.2),
                                 x0=x0, **kw)
        for k, (lr, beta) in enumerate(zip(lrs, betas)):
            alone = Method(sampler, estimator, direction, aggregator, beta=beta)
            try:
                x, trace, own_ledger = run(problem, alone, range(3), schedule(lr),
                                           Constant(0.2), x0=x0[k], **kw)
            except FloatingPointError as exc:
                assert traces[k].error == str(exc) and len(traces[k]) == 0
                assert np.isnan(xs[k]).all()
                continue
            np.testing.assert_array_equal(xs[k], x)
            assert traces[k] == trace and not trace.error
            assert ledger == own_ledger


def test_cell_axis_validation():
    p = problem()
    with pytest.raises(ValueError):
        run(p.split(), SIGNRR, range(1), Constant(np.array([0.1, 0.2, 0.3])), seed=SEED,
            x0=np.zeros((2, D)))
    with pytest.raises(ValueError):
        run(p.split(), Method("draw", "component", "momentum", beta=(0.5, 0.6, 0.7)),
            range(1), Constant(0.1), seed=SEED, x0=np.zeros((2, D)))
    with pytest.raises(ValueError):
        run(p.split(), SIGNRR, range(1), Constant(0.1), seed=SEED, x0=np.zeros((2, D)),
            detail=[])
