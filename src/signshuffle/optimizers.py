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

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .metrics import Trace
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
    """Coordinate mean over workers, the second-to-last axis of ``signs``;
    entries are exact multiples of 1/M in [-1, 1]."""
    signs = np.asarray(signs, dtype=float)
    if signs.ndim < 2 or signs.shape[-2] < 1:
        raise ValueError("signs must be a non-empty (workers, d) array or a stack of them")
    return Aggregate("sign_average", signs.sum(axis=-2) / signs.shape[-2])


def majority_vote(signs: Array) -> Aggregate:
    """Ternary vote per coordinate over workers: the sign of the sum, 0 on ties."""
    signs = np.asarray(signs, dtype=float)
    if signs.ndim < 2 or signs.shape[-2] < 1:
        raise ValueError("signs must be a non-empty (workers, d) array or a stack of them")
    return Aggregate("majority_vote", np.sign(signs.sum(axis=-2)))


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
    """One update rule as a composition; see the module docstring.

    ``beta`` is one momentum parameter, or a tuple of them with one entry
    per row of the iterate matrix :func:`run` steps.
    """

    sampler: str
    estimator: str
    direction: str
    aggregator: str = "identity"
    beta: float | tuple[float, ...] = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for value, known in ((self.sampler, SAMPLERS), (self.estimator, ESTIMATORS),
                             (self.direction, DIRECTIONS), (self.aggregator, AGGREGATORS)):
            if value not in known:
                raise ValueError(f"unknown method part {value!r}; known: {', '.join(known)}")
        if self.aggregator != "identity" and self.direction not in ("sign", "momentum"):
            raise ValueError(f"{self.aggregator} combines signs; {self.direction!r} pushes none")
        betas = np.asarray(self.beta, dtype=float)
        if self.direction in ("momentum", "adam") and not ((betas > 0) & (betas < 1)).all():
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


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
    """Mean over the worker axis (axis 1); one worker's entry is its own mean, exactly."""
    return rows[:, 0] if rows.shape[1] == 1 else rows.mean(axis=1)


def _probe(problem: FiniteSumProblem, point):
    """Objective, full gradient and its l1 and l2 norms at each point of a
    stack, averaged over blocks, plus each block's full gradient."""
    fulls = problem.grads(point)
    g = _mean(fulls)
    return _mean(problem.values(point)), g, np.abs(g).sum(axis=1), np.sqrt(np.vecdot(g, g)), fulls


def run(problem: FiniteSumProblem, method: Method, epochs: range, gamma: Schedule,
        dthr: Schedule | None = None, *, seed: int, x0, batch_size: int = 1,
        telemetry_stride: int = 1, detail=None, bytes_per_sign: int = 1,
        bytes_per_float: int = 64):
    """Apply ``method`` from x0 over the given epochs of ``problem``'s blocks.

    x0 is one point of shape (d,) or the K rows of an iterate matrix of
    shape (K, d).  The rows share the sampled rows and the schedules' shape;
    a vector scale of ``gamma`` and a tuple ``method.beta`` give each row its
    own stepsize and momentum parameter.  Each row evolves, bit for bit, as
    a run from that row alone would.

    Every inner iteration samples rows for each block, forms each worker's
    estimate and direction, aggregates them and steps the shared iterate by
    lr * payload.  Telemetry is taken before the update every
    ``telemetry_stride`` iterations (every iteration when ``detail`` is a
    list to append :class:`StepDetail` rows to; that needs a single row).
    ``dthr`` is the freeze threshold of the anchored estimator.

    A row stops at a NaN entry in a sign input or in the gradient norms of
    a probe, where a run from that row alone stops; its trace then holds no
    records and names the error, its final iterate is NaN, and the other
    rows run on.  A run from a single point raises FloatingPointError.

    Returns (final iterates, traces, communication ledger): one row's
    iterate and :class:`~signshuffle.metrics.Trace` for a single point, the
    (K, d) matrix and a list of K traces otherwise.
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
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[-1] != d:
        raise ValueError(f"x0 must have shape ({d},) or (K, {d}), got {x0.shape}")
    X = x0.reshape(-1, d)
    K = X.shape[0]
    if detail is not None and K != 1:
        raise ValueError(f"detail rows need a single point, got {K}")
    n_iter = -(-problem.n0 // batch_size)
    beta = np.asarray(method.beta, dtype=float)
    for what, size in (("method.beta", beta.size),
                       ("gamma", np.size(gamma.epoch(epochs[0], 1)))):
        if size not in (1, K):
            raise ValueError(f"{what} gives {size} values for {K} rows")
    # One momentum parameter for all rows stays a float, as cheap as it is
    # for a single row; one per row is a (K, 1, 1) column.
    beta = beta.item() if beta.size == 1 else beta.reshape(-1, 1, 1)
    ledger = CommLedger(bytes_per_sign=bytes_per_sign, bytes_per_float=bytes_per_float)
    aggregate = {"identity": None, "sign_average": sign_average,
                 "majority_vote": majority_vote}[method.aggregator]
    signed = direction in ("sign", "momentum")
    beta_rest, beta2 = 1.0 - beta, method.beta2
    mom = np.zeros((K, M, d)) if direction in ("momentum", "adam") else None
    second = np.zeros((K, M, d)) if direction == "adam" else None
    steps = 0
    Y = py = None
    cap = 0.0
    dist = np.zeros(K)
    applied = np.ones(K, dtype=bool)
    last = None
    own = 0 if M == 1 else slice(None)  # detail keeps 1-D rows for one worker
    grads, at = problem.grads, problem.at
    px = at(X)
    # A row that stops is cut from the matrix at the end of its iteration;
    # ``rows`` holds the original index of each row left.
    rows = np.arange(K)
    stopped = np.zeros(K, dtype=bool)
    cut = False
    errors = [""] * K
    t_col, i_col, cap_col, records = [], [], [], []

    def stop(bad, message):
        """Stop the rows flagged in ``bad``; True once no row is left."""
        for k in np.flatnonzero(bad & ~stopped):
            errors[rows[k]] = message
        stopped[bad] = True
        return stopped.all()

    for t in epochs:
        batches = _epoch_rows(method.sampler, problem, t, seed, batch_size, n_iter)
        lrs = gamma.epoch(t, n_iter)
        lrs = (lrs[:, rows] if lrs.ndim == 2 else
               np.broadcast_to(lrs[:, None], (n_iter, len(rows))))[..., None]
        if anchored:
            caps = dthr.epoch(t, n_iter)
            Y, py = X, px
            anchor = grads(py)
            if mom is not None:
                mom = np.zeros_like(mom)
        for i in range(n_iter):
            lr = lrs[i]
            sampled = batches[i]
            if anchored:
                cap = caps[i]
                v = (grads(px, sampled) - grads(py, sampled)) + anchor
            else:
                v = grads(px, sampled)
            if direction == "sign":
                push = np.sign(v)
            elif direction == "raw":
                push = v
            else:
                mom = beta * mom + beta_rest * v
                if direction == "momentum":
                    push = np.sign(mom)
                else:
                    second = beta2 * second + (1.0 - beta2) * v * v
                    steps += 1
                    # Python's float power, row by row, as a lone row computes it.
                    fix = (1.0 - beta ** steps if isinstance(beta, float) else
                           np.array([[1.0 - b ** steps] for b in beta.ravel().tolist()]))
                    m_hat = mom[:, 0] / fix
                    v_hat = second[:, 0] / (1.0 - beta2 ** steps)
                    push = None
            # A sum of squared signs is NaN only where a sign is.
            if signed and math.isnan(push.ravel() @ push.ravel()):
                cut = True
                if stop(np.isnan(push).any(axis=(1, 2)), "sign: NaN entry in input"):
                    break
            if aggregate is not None:
                payload = aggregate(push).payload
            elif push is not None:
                payload = push[:, 0]
            if anchored:
                dist = np.abs(X - Y).max(axis=1)
                applied = dist <= cap
            want_record = i % telemetry_stride == 0
            if want_record or detail is not None:
                f, g, l1, l2, fulls = _probe(problem, px)
                # Norms are not negative, so their sum is NaN only where one is.
                if math.isnan(sum(l1.tolist())):
                    cut = True
                    if stop(np.isnan(l1), "l1_norm: NaN entry"):
                        break
                if want_record:
                    t_col.append(t)
                    i_col.append(i)
                    cap_col.append(cap)
                    records.append((f, l1, l2, applied, lr))
                if last is not None:
                    last.f_after = f[0]
            if detail is not None:
                on = bool(applied[0])
                applied_dir = None
                if signed:
                    applied_dir = payload[0] if on else np.zeros(d)
                last = StepDetail(t, i, on, lr[0, 0], cap, float(dist[0]), f[0], np.nan, g[0],
                                  v[0, own], applied_dir, None if mom is None else mom[0, own],
                                  X[0], None if Y is None else Y[0],
                                  np.abs(v[0] - fulls[0]).max(axis=0) if anchored else None)
                detail.append(last)
            everywhere = not anchored or all(applied.tolist())
            if everywhere or applied.any():
                if push is None:
                    moved = X - lr * m_hat / (np.sqrt(v_hat) + method.eps)
                else:
                    moved = X - lr * payload
                X = moved if everywhere else np.where(applied[:, None], moved, X)
                px = at(X)
            if cut:
                cut = False
                keep = ~stopped
                rows = rows[keep]
                stopped, X, applied, lrs = stopped[keep], X[keep], applied[keep], lrs[:, keep]
                px = at(X)
                records = [tuple(column[keep] for column in record) for record in records]
                if anchored:
                    Y, anchor = Y[keep], anchor[keep]
                    py = at(Y)
                if mom is not None:
                    mom = mom[keep]
                if second is not None:
                    second = second[keep]
                if not isinstance(beta, float):
                    beta, beta_rest = beta[keep], beta_rest[keep]
        else:
            continue
        break
    if last is not None:
        last.f_after = _mean(problem.values(px))[0]
    if aggregate is not None:
        rounds = len(epochs) * n_iter
        ledger.bytes_up = rounds * M * d * bytes_per_sign
        ledger.bytes_down = rounds * M * d * (bytes_per_float if aggregate is sign_average
                                              else bytes_per_sign)
    final = np.full((K, d), np.nan)
    traces = [Trace.stopped(error) for error in errors]
    if not stopped.all():
        t_col, i_col, cap_col = np.array(t_col), np.array(i_col), np.array(cap_col)
        columns = [np.concatenate(column).reshape(len(column), -1)
                   for column in zip(*records)]
        for j, k in enumerate(rows):
            final[k] = X[j]
            traces[k] = Trace(t_col, i_col, *(column[:, j] for column in columns), cap_col)
    if x0.ndim == 2:
        return final, traces, ledger
    if errors[0]:
        raise FloatingPointError(errors[0])
    return final[0], traces[0], ledger


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
    state.x, trace, _ = run(problem.split(), method, range(state.t, state.t + 1),
                            gamma, dthr, seed=state.seed, x0=state.x, **kw)
    state.t += 1
    return state, trace


def signrvr_epoch(state: SignRVRState, problem: FiniteSumProblem, gamma: Schedule,
                  dthr: Schedule, **kw):
    """One anchored variance-reduced epoch of sign steps on a single machine.

    Keyword arguments are those of :func:`run`; returns (state, trace).
    """
    return _epoch(state, problem, Method("shuffle", "anchored", "sign"), gamma, dthr, **kw)


def signrvm_epoch(state: SignRVMState, problem: FiniteSumProblem, gamma: Schedule,
                  dthr: Schedule, **kw):
    """One anchored epoch whose sign steps follow a momentum of the estimates."""
    method = Method("shuffle", "anchored", "momentum", beta=state.beta)
    return _epoch(state, problem, method, gamma, dthr, **kw)
