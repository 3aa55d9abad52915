"""Outside-in span tracer for the edgereid benchmark.

The package has no tracing of its own, so this module wraps its public
functions and methods by attribute replacement and restores them afterwards.
A module-level function is replaced in its defining module and in every
edgereid module that imported it by name (`from .nn import softmax`), since
those callers look the name up in their own globals. Methods are replaced on
their class.

Each wrapped call records a span [name, start, end, parent, request]: the
parent is the index of the enclosing span, and `request` is the id of the
most recent `simulate.plan` call, so a plan and the rounds and per-pair
allocations that follow it share one id. Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

import numpy as np

# Span names under which an eval-mode network call counts as serving work.
SERVING_ROOTS = ("simulate.run_benchmark", "simulate.central_rankings")


def _forward(tracer, idx, args, kwargs, result):
    model = args[0]
    rows = int(np.shape(result)[0])
    c, d = model.config.num_cameras, model.config.embed_dim
    tracer.add("transition.TransitionNet.forward.rows", rows)
    # bytes of the spatial_weight[cams] gather: rows x D x C x D float64
    tracer.add("transition.TransitionNet.forward.gather_bytes", rows * d * c * d * 8)
    train = kwargs.get("train", args[4] if len(args) > 4 else False)
    if not train and tracer.within(SERVING_ROOTS):
        tracer.add("simulate.model_fallback.calls", 1)
        tracer.add("simulate.model_fallback.rows", rows)


def _lookup(tracer, idx, args, kwargs, result):
    tracer.add("simulate.TransitionTable.lookup.rows", int(np.shape(result)[0]))
    if tracer.within(SERVING_ROOTS):
        tracer.add("simulate.TransitionTable.serving_lookups", 1)


def _allocate(tracer, idx, args, kwargs, result):
    parent = tracer.spans[idx][3]
    if parent < 0 or tracer.spans[parent][0] != "simulate.plan":
        tracer.add("strategy.allocate_bandwidth.per_pair_calls", 1)
    key = tuple(np.asarray(a, dtype=np.float64).tobytes() for a in args[:2])
    key += tuple(args[2:]) + tuple(sorted(kwargs.items()))
    tracer.distinct.setdefault("strategy.allocate_bandwidth", set()).add(key)


def _table(tracer, idx, args, kwargs, result):
    model, timestamps = args[0], np.asarray(args[1])
    span = int(timestamps.max() - timestamps.min())
    tracer.add("simulate.build_transition_table.cells",
               model.config.num_cameras * (2 * span + 1))
    returned_model = type(result).__name__ != "TransitionTable"
    tracer.add("simulate.build_transition_table.returned_model", int(returned_model))


# (module, qualname, span name, hook). Private helpers of run_benchmark
# (_partners, _desired_index, _query_outcome) stay unwrapped: their time is
# run_benchmark's self time.
TARGETS = (
    ("scene", "generate", None, None),
    ("scene", "split_identities", None, None),
    ("scene", "Scene.subset", None, None),
    ("nn", "sinusoidal_embed", None, None),
    ("nn", "layer_norm_forward", None, None),
    ("nn", "layer_norm_backward", None, None),
    ("nn", "gelu", None, None),
    ("nn", "gelu_backward", None, None),
    ("nn", "BatchNorm.forward", None, None),
    ("nn", "BatchNorm.backward", None, None),
    ("nn", "cross_entropy", None, None),
    ("nn", "adam_step", None, None),
    ("nn", "softmax", None, None),
    ("transition", "train", None, None),
    ("transition", "sample_pairs", None, None),
    ("transition", "training_step", None, None),
    ("transition", "holdout_accuracy", None, None),
    ("transition", "load_checkpoint", None, None),
    ("transition", "TransitionNet.forward", None, _forward),
    ("transition", "TransitionNet.backward", None, None),
    ("transition", "GraphBlock.forward", None, None),
    ("transition", "GraphBlock.backward", None, None),
    ("transition", "_Head.forward", None, None),
    ("transition", "_Head.backward", None, None),
    ("strategy", "fit_frequency", None, None),
    ("strategy", "frequency_scores", None, None),
    ("strategy", "fuse_scores", None, None),
    ("strategy", "joint_similarity", None, None),
    ("strategy", "time_targeted_scores", None, None),
    ("strategy", "allocate_bandwidth", None, _allocate),
    ("strategy", "largest_remainder", None, None),
    ("simulate", "build_transition_table", None, _table),
    ("simulate", "TransitionTable.forward", "simulate.TransitionTable.lookup", _lookup),
    ("simulate", "TransitionTable.distribution", "simulate.TransitionTable.lookup",
     _lookup),
    ("simulate", "build_gallery", None, None),
    ("simulate", "eligible_queries", None, None),
    ("simulate", "make_task", None, None),
    ("simulate", "plan", None, None),
    ("simulate", "run_rounds", None, None),
    ("simulate", "run_benchmark", None, None),
    ("simulate", "central_rankings", None, None),
    ("metrics", "summarize", None, None),
    ("metrics", "cmc_map", None, None),
)


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[int] = []
        self._request = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def within(self, names) -> bool:
        """Whether any span on the current call stack has one of `names`."""
        return any(self.spans[i][0] in names for i in self._stack)

    def _open(self, name: str) -> int:
        if name == "simulate.plan":
            self._request += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result
        return traced

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Replace every one of TARGETS with a recording wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, qualname, span_name, hook in TARGETS:
                self._install_one(module_name, qualname, span_name, hook)
        except BaseException:
            self.restore()
            raise

    def _install_one(self, module_name, qualname, span_name, hook) -> None:
        module = importlib.import_module(f"edgereid.{module_name}")
        name = span_name or f"{module_name}.{qualname}"
        *owner_path, attr = qualname.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = self.wrap(name, original, hook)
        if owner is not module:
            self._patch(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "edgereid" or mod_name.startswith("edgereid."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover.

        Spans are recorded by one thread and close in stack order, so the
        children of a span never overlap and their durations simply add.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans)]

    def coverage(self, root: int) -> float:
        """Share of span `root` that its direct children cover."""
        _, start, end, _, _ = self.spans[root]
        covered = sum(s[2] - s[1] for s in self.spans if s[3] == root)
        return covered / (end - start) if end > start else 0.0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")


def percentile_ms(samples, q: float) -> float:
    """The q-th percentile in ms, or 0.0 unless at least ten samples lie
    beyond it (so p50 needs 20 samples, p95 200 and p99 1000)."""
    if len(samples) * (1.0 - q / 100.0) < 10.0:
        return 0.0
    return float(np.percentile(np.asarray(samples), q)) * 1000.0


def layer_stats(tracer: Tracer, samples: dict[str, list[float]]) -> dict[str, float]:
    """calls, s and self_s per span name, p50/p95/p99 from `samples`, plus
    the tracer's counters and distinct-input ratios."""
    out: dict[str, float] = {}
    totals: dict[str, list[float]] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        entry = totals.setdefault(span[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span[2] - span[1]
        entry[2] += self_s
    for name, (calls, total, self_total) in totals.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_total
    for name, durations in samples.items():
        for q in (50, 95, 99):
            out[f"{name}.p{q}_ms"] = percentile_ms(durations, q)
    out.update(tracer.counters)
    for name, keys in tracer.distinct.items():
        calls = out.get(f"{name}.calls", 0)
        out[f"{name}.distinct_frac"] = len(keys) / calls if calls else 0.0
    lookups = out.get("simulate.TransitionTable.serving_lookups", 0)
    fallbacks = out.get("simulate.model_fallback.calls", 0)
    out["simulate.table_hit_frac"] = (lookups / (lookups + fallbacks)
                                      if lookups + fallbacks else 0.0)
    return out
