"""Span tracing of the calls into each signshuffle module, from outside it.

Each traced name is wrapped where it is looked up: a function imported into
another module's namespace (``distributed`` holds its own ``sign`` and
``_rosen_parts``) is wrapped there too, and methods are wrapped on the class
that defines them.  Spans are kept in memory as flat arrays (start, end,
layer, parent) and written out when the benchmark ends.  A call made while
a span of the same layer is open joins that span, so a wrapper calling its
own implementation counts once.  Names that no longer exist are reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# layer -> the "module:attribute" or "module:Class.method" names it covers.
LAYERS = {
    "harness.run_cell": ("signshuffle.harness:run_cell",),
    "harness.lemma_section": ("signshuffle.harness:_lemma_section",),
    "optimizers.epoch": ("signshuffle.harness:signrr_epoch",
                         "signshuffle.harness:signrvr_epoch",
                         "signshuffle.harness:signrvm_epoch",
                         "signshuffle.harness:baseline_epoch"),
    "optimizers.probe": ("signshuffle.optimizers:_probe",),
    "optimizers.sign": ("signshuffle.optimizers:sign",
                        "signshuffle.distributed:sign"),
    "distributed.run": ("signshuffle.harness:dist_signrvr_run",
                        "signshuffle.harness:dist_signrvm_run",
                        "signshuffle.harness:dist_majority_vote_run",
                        "signshuffle.distributed:_dist_anchored_run"),
    "distributed.aggregate": ("signshuffle.distributed:sign_average",
                              "signshuffle.distributed:majority_vote"),
    "problems.component_grad": ("signshuffle.problems:RosenbrockSum.component_grad",
                                "signshuffle.problems:LogisticProblem.component_grad"),
    "problems.batch_grad": ("signshuffle.problems:FiniteSumProblem.batch_grad",
                            "signshuffle.problems:RosenbrockSum.batch_grad",
                            "signshuffle.problems:LogisticProblem.batch_grad"),
    "problems.full_grad": ("signshuffle.problems:FiniteSumProblem.full_grad",
                           "signshuffle.problems:RosenbrockSum.full_grad",
                           "signshuffle.problems:LogisticProblem.full_grad"),
    "problems.value": ("signshuffle.problems:FiniteSumProblem.value",
                       "signshuffle.problems:RosenbrockSum.value",
                       "signshuffle.problems:LogisticProblem.value"),
    "problems.rosen_parts": ("signshuffle.problems:_rosen_parts",
                             "signshuffle.distributed:_rosen_parts"),
    "problems.build": ("signshuffle.harness:_build_problem",
                       "signshuffle.harness:_build_workers"),
    "problems.smoothness": ("signshuffle.harness:estimate_coordinate_smoothness",),
    "schedules.value_at": ("signshuffle.schedules:Constant.value_at",
                           "signshuffle.schedules:InverseSqrt.value_at"),
    "streams.derive": ("signshuffle.streams:derive",),
    "metrics.emit_csv": ("signshuffle.metrics:emit_csv",),
    "metrics.process_series": ("signshuffle.metrics:process_series",),
    "theory.check_vr_bound": ("signshuffle.theory:check_vr_bound",),
    "theory.check_descent": ("signshuffle.theory:check_descent",),
    "theory.markov_suite": ("signshuffle.theory:markov_suite",),
}

# The geometry cache whose hit share the rosen_parts layer reports.
PARTS_CACHE = "signshuffle.problems:_PARTS_CACHE"


def _resolve(target: str):
    """(owner, attribute, current value) for a target, or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if owners and attr not in vars(owner):
        return None  # inherited, not defined on this class
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Installs span-recording wrappers and turns spans into layer totals."""

    def __init__(self, layers=LAYERS):
        self.layers = dict(layers)
        self.names = list(self.layers)
        self.starts = array("d")
        self.ends = array("d")
        self.layer = array("i")
        self.parent = array("q")
        self._stack = [-1]
        self._patched = []
        self.present = set()
        self.parts_lookups = 0
        self.parts_hits = 0
        self.cache_present = False

    def install(self) -> None:
        """Wrap every target that exists; remember which layers are present."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        cache = _resolve(PARTS_CACHE)
        self.cache_present = cache is not None
        self.parts_lookups = self.parts_hits = 0
        for lid, name in enumerate(self.names):
            for target in self.layers[name]:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr, fn = found
                if name == "problems.rosen_parts" and cache is not None:
                    wrapped = self._wrap_cached(fn, lid, cache[2])
                else:
                    wrapped = self._wrap(fn, lid)
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, fn))
                self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def absent(self) -> list:
        return [name for name in self.names if name not in self.present]

    def _wrap(self, fn, lid: int):
        starts, ends, layer, parent, stack = (self.starts, self.ends, self.layer,
                                              self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and layer[top] == lid:
                return fn(*args, **kwargs)
            idx = len(starts)
            layer.append(lid)
            parent.append(top)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _wrap_cached(self, fn, lid: int, cache):
        """Like :meth:`_wrap`, also counting lookups the id()-keyed cache serves."""
        inner = self._wrap(fn, lid)

        @functools.wraps(fn)
        def traced(x, *args, **kwargs):
            hit = cache.get(id(x))
            self.parts_lookups += 1
            self.parts_hits += hit is not None and hit[0] is x
            return inner(x, *args, **kwargs)

        return traced

    def mark(self) -> int:
        """Index of the next span, to delimit one traced round."""
        return len(self.starts)

    def totals(self, begin: int) -> dict:
        """Per layer, over the spans from ``begin`` on: calls, inclusive
        seconds, self seconds and durations.

        Self time is a span's duration minus the durations of its direct
        children, so every second is counted once across self times.
        """
        # Slicing an array.array copies it, so no view pins the live buffers.
        start = np.frombuffer(self.starts[begin:], dtype=float)
        stop = np.frombuffer(self.ends[begin:], dtype=float)
        layer = np.frombuffer(self.layer[begin:], dtype=np.int32)
        parent = np.frombuffer(self.parent[begin:], dtype=np.int64)
        dur = stop - start
        nested = parent >= 0
        child = np.bincount(parent[nested] - begin, weights=dur[nested],
                            minlength=dur.size)
        self_time = dur - child
        out = {}
        for lid, name in enumerate(self.names):
            sel = layer == lid
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum()), "durations": dur[sel]}
        return out

    def truncate(self, begin: int) -> None:
        """Drop the spans from ``begin`` on, once their totals are taken."""
        for buf in (self.starts, self.ends, self.layer, self.parent):
            del buf[begin:]

    def save(self, path) -> None:
        """Write the kept spans and the layer names."""
        np.savez_compressed(path, start=np.frombuffer(self.starts, dtype=float),
                            end=np.frombuffer(self.ends, dtype=float),
                            layer=np.frombuffer(self.layer, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            names=np.array(self.names))
