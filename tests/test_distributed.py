"""Multi-worker runs: aggregation, cost accounting, and exact reductions."""

import numpy as np
import pytest
from closed_forms import bowl_grad, bowl_value

from signshuffle import (
    Constant,
    Method,
    SignRVMState,
    SignRVRState,
    dist_signrvm_run,
    dist_signrvr_run,
    majority_vote,
    make_rosenbrock,
    make_rosenbrock_workers,
    run,
    shuffle,
    sign,
    sign_average,
    signrvm_epoch,
    signrvr_epoch,
    streams,
)

MASTER = 31


def workers_of(m, n0=4, d=3, u_max=10.0, seed=5):
    return make_rosenbrock_workers(m, n0, d, u_max, seed)


def worker_problems(m, n0=4, d=3, seed=5):
    """Each worker's rows as a problem of its own, drawn from its own stream."""
    return [make_rosenbrock(n0, d, 10.0, streams.child_seed(seed, streams.PROBLEM, w))
            for w in range(m)]


def vote_run(direction, workers, epochs, lr, beta=0.9, **kw):
    method = Method("draw", "component", direction, "majority_vote", beta=beta)
    return run(workers, method, range(epochs), Constant(lr), seed=MASTER,
               x0=np.zeros(workers.d), **kw)


class TestAggregation:
    def test_sign_average_payload(self):
        signs = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -1.0]])
        agg = sign_average(signs)
        assert agg.rule == "sign_average"
        np.testing.assert_array_equal(agg.payload, [1.0, 0.0, -0.5])

    def test_sign_average_payload_is_multiples_of_one_over_m(self):
        rng = np.random.default_rng(3)
        signs = rng.choice([-1.0, 0.0, 1.0], size=(8, 6))
        agg = sign_average(signs)
        np.testing.assert_array_equal(agg.payload * 8, np.round(agg.payload * 8))

    def test_majority_vote_payload(self):
        signs = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, 0.0]])
        agg = majority_vote(signs)
        assert agg.rule == "majority_vote"
        np.testing.assert_array_equal(agg.payload, [1.0, 1.0, 0.0])

    def test_majority_tie_broadcasts_zero(self):
        signs = np.array([[1.0], [-1.0]])
        np.testing.assert_array_equal(majority_vote(signs).payload, [0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            sign_average(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            majority_vote(np.zeros(3))


class TestCommLedger:
    def test_anchored_run_cost_model(self):
        # One inner iteration, 10 workers, dimension 5: each worker uploads
        # d sign entries, the server broadcasts d floats to each worker.
        workers = workers_of(10, n0=1, d=5)
        _, _, ledger = dist_signrvr_run(workers, 1, Constant(0.1), Constant(1.0),
                                        master_seed=MASTER, x0=np.zeros(5))
        assert ledger.bytes_up == 10 * 5 * 1
        assert ledger.bytes_down == 10 * 5 * 64
        assert ledger.total() == 3250

    def test_majority_vote_cost_model(self):
        _, _, ledger = vote_run("sign", workers_of(10, n0=1, d=5), 1, 0.1)
        assert ledger.bytes_up == 50
        assert ledger.bytes_down == 50

    def test_cost_ratio_is_32_5(self):
        # Equal iteration counts: the averaged-payload methods pay
        # (1 + 64) per coordinate per worker, the vote methods (1 + 1).
        avg = dist_signrvr_run(workers_of(10, n0=6, d=4), 3, Constant(0.1),
                               Constant(1.0), master_seed=MASTER, x0=np.zeros(4))[2]
        vote = vote_run("sign", workers_of(10, n0=6, d=4), 3, 0.1)[2]
        assert avg.total() / vote.total() == 32.5

    def test_custom_cost_model(self):
        workers = workers_of(2, n0=1, d=3)
        _, _, ledger = dist_signrvr_run(workers, 1, Constant(0.1), Constant(1.0),
                                        master_seed=MASTER, x0=np.zeros(3),
                                        bytes_per_sign=2, bytes_per_float=8)
        assert ledger.bytes_up == 2 * 3 * 2
        assert ledger.bytes_down == 2 * 3 * 8

    def test_anchored_majority_vote_pays_sign_rate_down(self):
        workers = workers_of(4, n0=2, d=3)
        _, _, ledger = dist_signrvr_run(workers, 1, Constant(0.1), Constant(1.0),
                                        master_seed=MASTER, x0=np.zeros(3),
                                        aggregation="majority_vote")
        assert ledger.bytes_down == 4 * 3 * 1 * 2


class TestSingleWorkerReduction:
    def centralized(self, cls, n0, d, seed_p, epochs, **kw):
        problem = make_rosenbrock(n0, d, 10.0, streams.child_seed(seed_p, streams.PROBLEM, 0))
        state = cls(x=np.full(d, 0.3), seed=MASTER, **kw)
        records = []
        for _ in range(epochs):
            if cls is SignRVRState:
                _, recs = signrvr_epoch(state, problem, Constant(0.05), Constant(0.4))
            else:
                _, recs = signrvm_epoch(state, problem, Constant(0.05), Constant(0.4))
            records.extend(recs)
        return state.x, records

    def test_signrvr_reduces_to_centralized(self):
        x_c, recs_c = self.centralized(SignRVRState, 5, 3, 9, 4)
        workers = workers_of(1, n0=5, d=3, seed=9)
        x_d, recs_d, _ = dist_signrvr_run(workers, 4, Constant(0.05), Constant(0.4),
                                          master_seed=MASTER, x0=np.full(3, 0.3))
        np.testing.assert_array_equal(x_d, x_c)
        assert list(recs_d) == recs_c

    def test_signrvm_reduces_to_centralized(self):
        x_c, recs_c = self.centralized(SignRVMState, 5, 3, 9, 4, beta=0.8)
        workers = workers_of(1, n0=5, d=3, seed=9)
        x_d, recs_d, _ = dist_signrvm_run(workers, 4, Constant(0.05), Constant(0.4),
                                          beta=0.8, master_seed=MASTER,
                                          x0=np.full(3, 0.3))
        np.testing.assert_array_equal(x_d, x_c)
        assert list(recs_d) == recs_c


class TestFastPaths:
    """The kernel's shared-geometry row oracle against closed-form replays."""

    def test_fast_and_generic_agree_bitwise(self):
        # Manual replay of both anchored methods with each worker's own
        # scales: permutation, anchor, estimate, momentum, average, freeze.
        problems = worker_problems(3)
        for beta in (None, 0.7):
            method = (Method("shuffle", "anchored", "sign", "sign_average") if beta is None
                      else Method("shuffle", "anchored", "momentum", "sign_average", beta=beta))
            x_run, recs, _ = run(workers_of(3), method, range(3), Constant(0.05),
                                 Constant(0.5), seed=MASTER, x0=np.zeros(3))
            x = np.zeros(3)
            f_seen = []
            for t in range(3):
                orders = [shuffle(4, t, MASTER, worker=w).order for w in range(3)]
                y = x
                anchors = [bowl_grad(float(p.b.mean()), y) for p in problems]
                mom = [np.zeros(3)] * 3
                for i in range(4):
                    f_seen.append(float(np.array([bowl_value(float(p.b.mean()), x)
                                                  for p in problems]).mean()))
                    est = [(bowl_grad(p.b[o[i]], x) - bowl_grad(p.b[o[i]], y)) + a
                           for p, o, a in zip(problems, orders, anchors)]
                    if beta is None:
                        pushed = [sign(e) for e in est]
                    else:
                        mom = [beta * m + (1.0 - beta) * e for m, e in zip(mom, est)]
                        pushed = [sign(m) for m in mom]
                    if np.abs(x - y).max() <= 0.5:
                        x = x - 0.05 * (np.stack(pushed).sum(axis=0) / 3)
            np.testing.assert_array_equal(x_run, x)
            assert [r.f for r in recs] == f_seen

    def test_vote_fast_and_generic_agree(self):
        # Batched draws: each worker pushes the sign of its batch mean.
        problems = worker_problems(3)
        x_run, _, _ = vote_run("sign", workers_of(3), 2, 0.05, batch_size=2)
        x = np.zeros(3)
        for t in range(2):
            draws = [streams.derive(MASTER, streams.SAMPLE, w, t).integers(0, 4, size=(2, 2))
                     for w in range(3)]
            for i in range(2):
                signs = np.stack([sign(bowl_grad(float(problems[w].b[draws[w][i]].mean()), x))
                                  for w in range(3)])
                x = x - 0.05 * sign(signs.sum(axis=0))
        np.testing.assert_array_equal(x_run, x)


class TestReplicas:
    """Workers are equal blocks of one problem's rows."""

    def test_worker_validation(self):
        problem = make_rosenbrock(7, 3, 10.0, 0)
        with pytest.raises(ValueError):
            problem.split(2)
        with pytest.raises(ValueError):
            problem.split(0)
        with pytest.raises(ValueError):
            make_rosenbrock_workers(0, 4, 3, 10.0, 5)
        with pytest.raises(ValueError):
            dist_signrvr_run(workers_of(2, d=3), 1, Constant(0.1), Constant(1.0),
                             master_seed=MASTER, x0=np.zeros(4))


class TestWorkerConstruction:
    def test_distinct_local_data(self):
        workers = workers_of(4, seed=12)
        assert (workers.parts, workers.n0, workers.n) == (4, 4, 16)
        blocks = [workers.b[4 * m:4 * (m + 1)] for m in range(4)]
        for a in range(4):
            np.testing.assert_array_equal(blocks[a], worker_problems(4, seed=12)[a].b)
            for b in range(a + 1, 4):
                assert not np.array_equal(blocks[a], blocks[b])

    def test_deterministic(self):
        np.testing.assert_array_equal(workers_of(3, seed=12).b, workers_of(3, seed=12).b)


class TestMajorityVoteRun:
    def test_signsgd_mv_matches_manual_server_loop(self):
        n0, d, m = 3, 3, 2
        x_run, recs, _ = vote_run("sign", workers_of(m, n0=n0, d=d, seed=21), 2, 0.1)
        x = np.zeros(d)
        problems = worker_problems(m, n0=n0, d=d, seed=21)
        for t in range(2):
            draws = [streams.derive(MASTER, streams.SAMPLE, w, t).integers(0, n0, size=(n0, 1))
                     for w in range(m)]
            for i in range(n0):
                signs = np.stack([sign(bowl_grad(problems[w].b[draws[w][i, 0]], x))
                                  for w in range(m)])
                x = x - 0.1 * sign(signs.sum(axis=0))
        np.testing.assert_array_equal(x_run, x)
        assert len(recs) == 2 * n0

    def test_signum_mv_matches_manual_server_loop(self):
        # Per-worker momentum is never reset inside a run; epoch boundaries
        # only matter for the sampling streams.
        n0, d, m, beta = 3, 3, 2, 0.7
        x_run, _, _ = vote_run("momentum", workers_of(m, n0=n0, d=d, seed=8), 2, 0.05,
                               beta=beta)
        x = np.zeros(d)
        problems = worker_problems(m, n0=n0, d=d, seed=8)
        mom = [np.zeros(d) for _ in range(m)]
        for t in range(2):
            draws = [streams.derive(MASTER, streams.SAMPLE, w, t).integers(0, n0, size=(n0, 1))
                     for w in range(m)]
            for i in range(n0):
                for w in range(m):
                    g = bowl_grad(problems[w].b[draws[w][i, 0]], x)
                    mom[w] = beta * mom[w] + (1.0 - beta) * g
                votes = np.stack([sign(mom[w]) for w in range(m)])
                x = x - 0.05 * sign(votes.sum(axis=0))
        np.testing.assert_array_equal(x_run, x)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Method("draw", "component", "adam", "majority_vote")
        with pytest.raises(ValueError):
            Method("draw", "component", "sign", "median")
        with pytest.raises(ValueError):
            vote_run("sign", workers_of(2), 1, 0.1, telemetry_stride=0)

    def test_one_worker_vote_is_central_signsgd(self):
        # A vote over one sign returns that sign: signsgd_mv with one worker
        # is signsgd on the same rows and draws.
        split = make_rosenbrock(6, 3, 10.0, 4).split()
        central = run(split, Method("draw", "component", "sign"), range(3),
                      Constant(0.05), seed=MASTER, x0=np.zeros(3))
        voted = vote_run("sign", split, 3, 0.05)
        np.testing.assert_array_equal(central[0], voted[0])
        assert central[1] == voted[1]
        assert central[2].total() == 0 and voted[2].total() == 2 * 3 * 6 * 3


def test_freeze_behaviour_matches_centralized_semantics():
    # A cap below the step size freezes every worker after the first move,
    # exactly as in the single-machine method.
    workers = workers_of(3)
    x, recs, _ = dist_signrvr_run(workers, 1, Constant(0.05), Constant(1e-12),
                                  master_seed=MASTER, x0=np.full(3, 0.3))
    assert recs.applied[0] and not recs.applied[1:].any()
    assert float(np.abs(x - 0.3).max()) == pytest.approx(0.05, abs=1e-12)
