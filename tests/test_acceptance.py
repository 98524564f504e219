"""End-to-end acceptance gate.

Each test covers one numbered criterion and records a one-line verdict
that the terminal summary prints after the run.  The two preset sweeps
(central and distributed Rosenbrock at scale 0.2) are shared module
fixtures; the remaining criteria run on small purpose-built instances.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from signshuffle import distributed as dst
from signshuffle import harness as hz
from signshuffle import optimizers as opt
from signshuffle import schedules, streams, theory
from signshuffle.problems import LogisticProblem, finite_diff_check, make_rosenbrock

SCALE = 0.2


@pytest.fixture(scope="module")
def central(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_central")
    config = hz.build_config(preset_name="rosenbrock_central", scale=SCALE,
                             overrides={"out_dir": str(out)})
    start = time.perf_counter()
    summary = hz.run_experiment(config)
    wall = time.perf_counter() - start
    return config, summary, wall


@pytest.fixture(scope="module")
def dist_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_dist")
    config = hz.build_config(preset_name="rosenbrock_dist", scale=SCALE,
                             overrides={"out_dir": str(out)})
    summary = hz.run_experiment(config)
    return config, summary


def best_final(summary, algo, seed):
    return summary["best"][f"{algo}:{seed}"]["final"]


def test_criterion_01_reshuffled_ordering(central, criterion):
    config, summary, wall = central
    wins = sum(1 for s in config.seeds
               if best_final(summary, "signrvm", s)
               <= best_final(summary, "signrvr", s)
               <= best_final(summary, "signrr", s))
    criterion(1, wins >= 4 and wall < 300.0,
              f"signrvm <= signrvr <= signrr at best grid points in "
              f"{wins}/{len(config.seeds)} seeds, sweep took {wall:.0f}s")


def test_criterion_02_signrr_tracks_signsgd(central, criterion):
    config, summary, _ = central
    close = sum(1 for s in config.seeds
                if abs(best_final(summary, "signrr", s)
                       - best_final(summary, "signsgd", s)) <= 0.5)
    criterion(2, close >= 4,
              f"best signrr within half an order of magnitude of signsgd "
              f"in {close}/{len(config.seeds)} seeds")


def test_criterion_03_distributed_ordering(dist_sweep, criterion):
    config, summary = dist_sweep
    wins = sum(1 for s in config.seeds
               if best_final(summary, "dist_signrvr", s)
               < best_final(summary, "signsgd_mv", s)
               and best_final(summary, "dist_signrvm", s)
               < best_final(summary, "signsgd_mv", s))
    criterion(3, wins >= 4,
              f"both anchored distributed methods beat the plain majority "
              f"vote in {wins}/{len(config.seeds)} seeds")


def test_criterion_04_traffic_ratio(dist_sweep, criterion):
    _, summary = dist_sweep
    totals = {}
    for algo in ("dist_signrvr", "signsgd_mv"):
        per_cell = {row["bytes_up"] + row["bytes_down"]
                    for row in summary["cells"]
                    if row["algo"] == algo and not row["diverged"]}
        assert len(per_cell) == 1, f"{algo}: unequal traffic across cells: {sorted(per_cell)}"
        totals[algo] = per_cell.pop()
    rvr, mv = totals["dist_signrvr"], totals["signsgd_mv"]
    criterion(4, 2 * rvr == 65 * mv and rvr / mv == 32.5,
              f"equal-iteration traffic {rvr} vs {mv} units, ratio {rvr / mv}")


def test_criterion_05_single_worker_reduction(criterion):
    n0, d, u_max, seed, epochs = 60, 5, 10.0, 9, 3
    gamma, dthr = schedules.Constant(0.05), schedules.Constant(0.5)
    x0 = np.full(d, 0.3)
    problem = make_rosenbrock(n0, d, u_max, streams.child_seed(seed, streams.PROBLEM, 0))

    workers = dst.make_rosenbrock_workers(1, n0, d, u_max, seed)
    x_vr, rec_vr, _ = dst.dist_signrvr_run(workers, epochs, gamma, dthr,
                                           master_seed=seed, x0=x0)
    state = opt.SignRVRState(x=x0.copy(), seed=seed)
    central_vr = []
    for _ in range(epochs):
        state, recs = opt.signrvr_epoch(state, problem, gamma, dthr)
        central_vr.extend(recs)
    vr_ok = np.array_equal(x_vr, state.x) and list(rec_vr) == central_vr

    workers = dst.make_rosenbrock_workers(1, n0, d, u_max, seed)
    x_vm, rec_vm, _ = dst.dist_signrvm_run(workers, epochs, gamma, dthr,
                                           beta=0.8, master_seed=seed, x0=x0)
    mstate = opt.SignRVMState(x=x0.copy(), seed=seed, beta=0.8)
    central_vm = []
    for _ in range(epochs):
        mstate, recs = opt.signrvm_epoch(mstate, problem, gamma, dthr)
        central_vm.extend(recs)
    vm_ok = np.array_equal(x_vm, mstate.x) and list(rec_vm) == central_vm

    criterion(5, vr_ok and vm_ok,
              f"one-worker runs match the centralized methods bit for bit "
              f"over {epochs * n0} iterations")


def test_criterion_06_lemma_suites(central, dist_sweep, criterion):
    _, central_summary, _ = central
    _, dist_summary = dist_sweep
    central_lines = central_summary["lemmas"]
    dist_lines = dist_summary["lemmas"]
    families = (any("signrvr vr-deviation" in ln for ln in central_lines)
                and any("signrvm vr-deviation" in ln for ln in central_lines)
                and any("signed-descent" in ln for ln in central_lines)
                and any("dist_signrvr vr-deviation" in ln for ln in dist_lines)
                and any("dist_signrvm vr-deviation" in ln for ln in dist_lines))
    markov = theory.markov_suite(samples=100_000)
    markov_ok = len(markov) == 3 and all(r.violations == 0 for r in markov)
    criterion(6, central_summary["lemma_violations"] == 0
              and dist_summary["lemma_violations"] == 0
              and families and markov_ok,
              "0 violations across both sweep lemma sections and the "
              "3-model sign-probability suite at 100000 samples")


def test_criterion_07_structural_invariants(criterion):
    ref = np.arange(200)
    perms_ok = all(np.array_equal(np.sort(opt.shuffle(200, t, seed).order), ref)
                   for seed in range(1, 6) for t in range(30))

    problem = make_rosenbrock(24, 5, 10.0, 3)
    gamma, dthr = schedules.Constant(0.02), schedules.Constant(0.3)
    x0 = np.full(5, -0.5)

    detail = []
    state = opt.SignRVRState(x=x0.copy(), seed=7)
    for _ in range(3):
        state, _ = opt.signrvr_epoch(state, problem, gamma, dthr, detail=detail)
    freeze_ok = (all(row.applied == (row.dist_inf <= row.d_threshold) for row in detail)
                 and any(row.applied for row in detail)
                 and any(not row.applied for row in detail))
    anchor_ok = all(row.dist_inf == 0.0
                    and np.array_equal(row.stoch_grad, problem.full_grad(row.y))
                    for row in detail if row.i == 0)

    beta = 0.7
    mdetail = []
    mstate = opt.SignRVMState(x=x0.copy(), seed=7, beta=beta)
    for _ in range(3):
        mstate, _ = opt.signrvm_epoch(mstate, problem, gamma, dthr, detail=mdetail)
    worst = 0.0
    mom = None
    for row in mdetail:
        if row.i == 0:
            mom = np.zeros_like(row.stoch_grad)
        mom = beta * mom + (1.0 - beta) * row.stoch_grad
        worst = max(worst, float(np.abs(mom - row.momentum).max()))

    rng = np.random.default_rng(12)
    bias_ok = all(np.array_equal(np.sign(opt.bias_correct(m, b, k)), np.sign(m))
                  for m, b, k in ((rng.normal(size=6),
                                   float(rng.uniform(0.05, 0.95)),
                                   int(rng.integers(0, 500)))
                                  for _ in range(100)))

    criterion(7, perms_ok and freeze_ok and anchor_ok and worst <= 1e-12 and bias_ok,
              f"permutations bijective, freeze rule exact, epoch anchors "
              f"cancel bitwise, momentum replays to {worst:.1e}, "
              f"bias correction sign-invariant in 100 cases")


def test_criterion_08_schedule_closed_forms(criterion):
    shapes = ((100, 100), (7, 1428), (1, 10_000), (2500, 4))
    worst_ulp = 0.0
    flat_exact = True
    for n, total in shapes:
        assert n * total <= 10_000
        plain = schedules.InverseSqrt(0.05)
        shifted = schedules.InverseSqrt(0.05, epoch_shift=True)
        flat_value = 0.05 / math.sqrt(n * total)
        flat = schedules.Constant(flat_value)
        for t in range(total):
            for i in range(n):
                want = 0.05 / math.sqrt(n * t + i + 1)
                err = abs(plain.value_at(t, i, n) - want) / math.ulp(want)
                worst_ulp = max(worst_ulp, err)
                want = 0.05 / math.sqrt(n * (t + 1) + i + 1)
                err = abs(shifted.value_at(t, i, n) - want) / math.ulp(want)
                worst_ulp = max(worst_ulp, err)
                flat_exact = flat_exact and flat.value_at(t, i, n) == flat_value
    criterion(8, worst_ulp <= 1.0 and flat_exact,
              f"plain, epoch-shifted, and flat schedules match their closed "
              f"forms within {worst_ulp:.1f} ulp over {len(shapes)} grid shapes")


def test_criterion_09_gradient_oracles(criterion):
    rng = np.random.default_rng(0)
    rosen = make_rosenbrock(40, 5, 10.0, 11)
    features = rng.normal(size=(30, 4))
    labels = rng.integers(0, 3, size=30)
    logistic = LogisticProblem(features, labels, num_classes=3)
    worst = 0.0
    for _ in range(20):
        worst = max(worst, finite_diff_check(rosen, rng.uniform(-2.0, 2.0, rosen.d), 1e-6))
        worst = max(worst, finite_diff_check(logistic, rng.uniform(-2.0, 2.0, logistic.d), 1e-6))
    criterion(9, worst < 1e-4,
              f"worst finite-difference relative error {worst:.2e} at 20 "
              f"random points per problem, all component pairs")


def test_criterion_10_determinism(central, tmp_path_factory, criterion):
    config, summary, _ = central
    out2 = tmp_path_factory.mktemp("acceptance_rerun")
    rerun_summary = hz.run_experiment(dataclasses.replace(config, out_dir=str(out2)))
    first = Path(config.out_dir)
    names = sorted(p.name for p in first.glob("*.csv"))
    rerun_names = sorted(p.name for p in Path(out2).glob("*.csv"))
    diffs = [nm for nm in names
             if (first / nm).read_bytes() != (Path(out2) / nm).read_bytes()]
    criterion(10, names == rerun_names and names and not diffs
              and rerun_summary["best"] == summary["best"],
              f"rerun reproduced all {len(names)} trace files byte for byte")
