"""The update kernel behind every method, and its single-machine entry points.

Every method here is one rule applied by one kernel (:func:`run`) over the
rows of a finite sum split into equal blocks, one block per worker; a
centralized run is the split into one block.  A method is a composition of

- a sampler: "shuffle" walks a fresh permutation of each block per epoch,
  "draw" samples rows uniformly with replacement;
- an estimator: "component" uses the sampled rows' gradient, "anchored"
  the semi-stochastic estimate

      v = grad_i(x) - grad_i(y) + full_grad(y)

  with the epoch anchor y (the iterate at the start of the epoch);
- a direction: "raw" takes v itself, "sign" its sign, "momentum" the sign of
  m <- beta * m + (1 - beta) * v, "adam" the bias-corrected Adam step;
- an aggregator: "identity" for one block (nothing is sent),
  "sign_average" or "majority_vote" for the signs the workers push;
- the freeze gate of the anchored estimator: the update is applied only
  while ||x - y||_inf stays within the freeze threshold; the estimate, and
  any momentum built from it, still advances on a frozen iteration.

Momentum of anchored estimates restarts at every anchor; the momentum and
Adam state of the other methods persist across epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics, streams
from .problems import FiniteSumProblem
from .schedules import Schedule

Array = np.ndarray

SAMPLERS = ("shuffle", "draw")
ESTIMATORS = ("component", "anchored")
DIRECTIONS = ("raw", "sign", "momentum", "adam")
AGGREGATORS = ("identity", "sign_average", "majority_vote")


def sign(v) -> Array:
    """Element-wise sign with sign(0) = 0; NaN entries are an error."""
    v = np.asarray(v, dtype=float)
    if np.isnan(v).any():
        raise FloatingPointError("sign: NaN entry in input")
    return np.sign(v)


@dataclass(frozen=True)
class Permutation:
    """A component ordering for one epoch, with its provenance."""

    order: Array
    epoch: int
    seed: int
    worker: int = 0


def shuffle(n: int, t: int, master_seed: int, worker: int = 0) -> Permutation:
    """Permutation of range(n) for epoch t, deterministic in all arguments."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if t < 0:
        raise ValueError(f"epoch index must be non-negative, got {t}")
    rng = streams.derive(master_seed, streams.SHUFFLE, worker, t)
    order = rng.permutation(n)
    order.setflags(write=False)
    return Permutation(order=order, epoch=t, seed=master_seed, worker=worker)


def bias_correct(momentum: Array, beta: float, i: int) -> Array:
    """Debiased view momentum / (1 - beta^(i+1)) after i+1 accumulations.

    The correction rescales by a positive factor, so it never changes any
    sign; it exists for diagnostics, not for the updates themselves.
    """
    if not 0 < beta < 1:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if i < 0:
        raise ValueError(f"iteration index must be non-negative, got {i}")
    return momentum / (1.0 - beta ** (i + 1))


@dataclass(frozen=True)
class Aggregate:
    """Server-side combination of the workers' sign vectors."""

    rule: str
    payload: Array


def sign_average(signs: Array) -> Aggregate:
    """Coordinate mean of the rows; entries are exact multiples of 1/M in [-1, 1]."""
    signs = np.asarray(signs, dtype=float)
    if signs.ndim != 2 or signs.shape[0] < 1:
        raise ValueError("signs must be a non-empty (workers, d) array")
    return Aggregate("sign_average", signs.sum(axis=0) / signs.shape[0])


def majority_vote(signs: Array) -> Aggregate:
    """Ternary vote per coordinate: the sign of the column sum, 0 on ties."""
    signs = np.asarray(signs, dtype=float)
    if signs.ndim != 2 or signs.shape[0] < 1:
        raise ValueError("signs must be a non-empty (workers, d) array")
    return Aggregate("majority_vote", np.sign(signs.sum(axis=0)))


@dataclass
class CommLedger:
    """Byte tallies for pushed sign vectors and pulled server responses.

    Sign payloads cost ``bytes_per_sign`` per coordinate, a pulled average
    costs ``bytes_per_float`` per coordinate.
    """

    bytes_per_sign: int = 1
    bytes_per_float: int = 64
    bytes_up: int = 0
    bytes_down: int = 0

    def __post_init__(self):
        if self.bytes_per_sign < 1 or self.bytes_per_float < 1:
            raise ValueError("per-unit byte costs must be at least 1")

    def total(self) -> int:
        return self.bytes_up + self.bytes_down


@dataclass(frozen=True)
class Method:
    """One update rule as a composition; see the module docstring."""

    sampler: str
    estimator: str
    direction: str
    aggregator: str = "identity"
    beta: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for value, known in ((self.sampler, SAMPLERS), (self.estimator, ESTIMATORS),
                             (self.direction, DIRECTIONS), (self.aggregator, AGGREGATORS)):
            if value not in known:
                raise ValueError(f"unknown method part {value!r}; known: {', '.join(known)}")
        if self.aggregator != "identity" and self.direction not in ("sign", "momentum"):
            raise ValueError(f"{self.aggregator} combines signs; {self.direction!r} pushes none")
        if self.direction in ("momentum", "adam") and not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


@dataclass(slots=True)
class TraceRecord:
    """Telemetry for one inner iteration, taken before the update."""

    t: int
    i: int
    f: float
    grad_l1: float
    grad_l2: float
    applied: bool
    gamma: float
    d_threshold: float


@dataclass(slots=True)
class StepDetail:
    """Full per-iteration state for trajectory checks and replays.

    ``stoch_grad`` is the estimate each worker formed and ``momentum`` its
    first moment, one row per worker (1-D when the run has one block);
    ``grad_before`` and ``f_before`` are the full gradient and objective
    at ``x``, ``f_after`` the objective after the step.  ``direction`` is
    the aggregated sign payload actually applied, zeros on a frozen
    iteration, and None for magnitude steps.  ``worker_dev`` is the
    coordinate-wise worst deviation, over workers, of the anchored estimate
    from that worker's full block gradient; None for other estimators.
    """

    t: int
    i: int
    applied: bool
    gamma: float
    d_threshold: float
    dist_inf: float
    f_before: float
    f_after: float
    grad_before: Array
    stoch_grad: Array
    direction: Array | None
    momentum: Array | None
    x: Array
    y: Array | None
    worker_dev: Array | None = None


def _epoch_rows(sampler: str, problem: FiniteSumProblem, t: int, seed: int,
                batch_size: int, n_iter: int):
    """Global row indices of epoch t: entry i names one row per block
    (batch 1) or one batch per block (a (parts, batch) array)."""
    n0, parts = problem.n0, problem.parts
    if sampler == "shuffle":
        order = np.stack([shuffle(n0, t, seed, worker=m).order for m in range(parts)])
    else:
        order = np.stack([streams.derive(seed, streams.SAMPLE, m, t).integers(
            0, n0, size=(n_iter, batch_size)).ravel() for m in range(parts)])
    order += n0 * np.arange(parts)[:, None]
    if batch_size == 1:
        return order.T
    return [order[:, k:k + batch_size] for k in range(0, order.shape[1], batch_size)]


def _mean(rows):
    """Mean over workers; one worker's row is its own mean, exactly."""
    return rows[0] if len(rows) == 1 else np.mean(rows, axis=0)


def _probe(problem: FiniteSumProblem, point):
    """Objective, full gradient and its norms at a point, averaged over blocks,
    plus each block's full gradient."""
    fulls = problem.grads(point)
    g = _mean(fulls)
    return float(_mean(problem.values(point))), g, metrics.l1_norm(g), metrics.l2_norm(g), fulls


def run(problem: FiniteSumProblem, method: Method, epochs: range, gamma: Schedule,
        dthr: Schedule | None = None, *, seed: int, x0, batch_size: int = 1,
        telemetry_stride: int = 1, detail=None, bytes_per_sign: int = 1,
        bytes_per_float: int = 64):
    """Apply ``method`` from x0 over the given epochs of ``problem``'s blocks.

    Every inner iteration samples rows for each block, forms each worker's
    estimate and direction, aggregates them and steps the shared iterate by
    lr * payload.  Telemetry is taken before the update every
    ``telemetry_stride`` iterations (every iteration when ``detail`` is a
    list to append :class:`StepDetail` rows to).  ``dthr`` is the freeze
    threshold of the anchored estimator.

    Returns (final iterate, trace records, communication ledger).
    """
    M, d = problem.parts, problem.d
    direction = method.direction
    anchored = method.estimator == "anchored"
    if len(epochs) < 1:
        raise ValueError("epochs must name at least one epoch")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    if telemetry_stride < 1:
        raise ValueError(f"telemetry_stride must be at least 1, got {telemetry_stride}")
    if method.aggregator == "identity" and M != 1:
        raise ValueError(f"the identity aggregator needs one block, got {M}")
    if anchored and dthr is None:
        raise ValueError("the anchored estimator needs a freeze threshold schedule")
    x = np.asarray(x0, dtype=float)
    if x.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},), got {x.shape}")
    ledger = CommLedger(bytes_per_sign=bytes_per_sign, bytes_per_float=bytes_per_float)
    aggregate = {"identity": None, "sign_average": sign_average,
                 "majority_vote": majority_vote}[method.aggregator]
    beta, beta2 = method.beta, method.beta2
    mom = np.zeros((M, d)) if direction in ("momentum", "adam") else None
    second = np.zeros((M, d)) if direction == "adam" else None
    steps = 0
    y = py = None
    cap = dist = 0.0
    applied = True
    last = None
    own = 0 if M == 1 else slice(None)  # detail keeps 1-D rows for one worker
    n_iter = -(-problem.n0 // batch_size)
    grads, at = problem.grads, problem.at
    px = at(x)
    records = []
    for t in epochs:
        batches = _epoch_rows(method.sampler, problem, t, seed, batch_size, n_iter)
        if anchored:
            y, py = x, px
            anchor = grads(py)
            if mom is not None:
                mom = np.zeros((M, d))
        for i in range(n_iter):
            lr = gamma.value_at(t, i, n_iter)
            rows = batches[i]
            if anchored:
                cap = dthr.value_at(t, i, n_iter)
                v = (grads(px, rows) - grads(py, rows)) + anchor
            else:
                v = grads(px, rows)
            if direction == "sign":
                push = sign(v)
            elif direction == "raw":
                push = v
            else:
                mom = beta * mom + (1.0 - beta) * v
                if direction == "momentum":
                    push = sign(mom)
                else:
                    second = beta2 * second + (1.0 - beta2) * v * v
                    steps += 1
                    m_hat = mom[0] / (1.0 - beta ** steps)
                    v_hat = second[0] / (1.0 - beta2 ** steps)
                    push = None
            if aggregate is not None:
                payload = aggregate(push).payload
            elif push is not None:
                payload = push[0]
            if anchored:
                dist = float(np.abs(x - y).max())
                applied = dist <= cap
            want_record = i % telemetry_stride == 0
            if want_record or detail is not None:
                f, g, l1, l2, fulls = _probe(problem, px)
                if want_record:
                    records.append(TraceRecord(t, i, f, l1, l2, applied, lr, cap))
                if last is not None:
                    last.f_after = f
            if detail is not None:
                applied_dir = None
                if direction in ("sign", "momentum"):
                    applied_dir = payload if applied else np.zeros_like(x)
                last = StepDetail(t, i, applied, lr, cap, dist, f, np.nan, g, v[own],
                                  applied_dir, None if mom is None else mom[own], x, y,
                                  np.abs(v - fulls).max(axis=0) if anchored else None)
                detail.append(last)
            if applied:
                if push is None:
                    x = x - lr * m_hat / (np.sqrt(v_hat) + method.eps)
                else:
                    x = x - lr * payload
                px = at(x)
    if last is not None:
        last.f_after = float(_mean(problem.values(px)))
    if aggregate is not None:
        rounds = len(epochs) * n_iter
        ledger.bytes_up = rounds * M * d * bytes_per_sign
        ledger.bytes_down = rounds * M * d * (bytes_per_float if aggregate is sign_average
                                              else bytes_per_sign)
    return x, records, ledger


@dataclass
class SignRVRState:
    """Iterate, stream seed and next epoch of a single-machine anchored run."""

    x: Array
    seed: int
    t: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)


@dataclass
class SignRVMState(SignRVRState):
    beta: float = 0.9

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


def _epoch(state, problem: FiniteSumProblem, method: Method, gamma: Schedule,
           dthr: Schedule, **kw):
    state.x, records, _ = run(problem.split(), method, range(state.t, state.t + 1),
                              gamma, dthr, seed=state.seed, x0=state.x, **kw)
    state.t += 1
    return state, records


def signrvr_epoch(state: SignRVRState, problem: FiniteSumProblem, gamma: Schedule,
                  dthr: Schedule, **kw):
    """One anchored variance-reduced epoch of sign steps on a single machine.

    Keyword arguments are those of :func:`run`; returns (state, records).
    """
    return _epoch(state, problem, Method("shuffle", "anchored", "sign"), gamma, dthr, **kw)


def signrvm_epoch(state: SignRVMState, problem: FiniteSumProblem, gamma: Schedule,
                  dthr: Schedule, **kw):
    """One anchored epoch whose sign steps follow a momentum of the estimates."""
    method = Method("shuffle", "anchored", "momentum", beta=state.beta)
    return _epoch(state, problem, method, gamma, dthr, **kw)
