"""Outside-in layer tracing: span wrappers around each layer's public entry point.

The program under test carries no instrumentation of its own here.  In traced
mode :func:`install` replaces a few public methods with wrappers that record
one :class:`Span` per call (name, start, end, parent, thread) plus the counts
visible at that boundary, keeps them in memory and hands them back when the
benchmark ends.  :func:`summarize` turns a span list into per-layer busy and
self times.

A span's parent is the innermost open span of the same thread; spans opened on
other threads may name a parent explicitly.  A span's *self time* is its
duration minus the part of its interval that its children cover (children may
overlap each other when they run on several threads).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    thread: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[Span]:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, parent, time.perf_counter(),
                    thread=threading.get_ident())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def to_list(self) -> list[dict[str, Any]]:
        return [asdict(span) for span in self.spans]


def spans_from_list(data: list[dict[str, Any]]) -> list[Span]:
    return [Span(**item) for item in data]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    clipped = [
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
        if child.end > span.start and child.start < span.end
    ]
    return span.duration - covered(clipped)


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def merge(self, other: "LayerTotals") -> None:
        self.calls += other.calls
        self.busy_s += other.busy_s
        self.self_s += other.self_s
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per-layer totals over one process's spans.

    ``busy_s`` and ``calls`` count only a layer's outermost spans (a span
    nested inside another span of the same layer adds nothing), ``self_s``
    sums every span's self time, and ``counts`` sums the boundary counts.
    """
    by_id = {span.id: span for span in spans}
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, LayerTotals] = {}
    for span in spans:
        layer = totals.setdefault(span.name, LayerTotals())
        layer.self_s += self_time(span, children.get(span.id, []))
        for key, value in span.counts.items():
            layer.counts[key] = layer.counts.get(key, 0) + value
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        while ancestor is not None and ancestor.name != span.name:
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if ancestor is None:
            layer.calls += 1
            layer.busy_s += span.duration
    return totals


# ------------------------------------------------------------------ the layers
def _count_solve(span, solver, args, kwargs, result, before):
    span.counts["propagations"] = result.stats.propagations


def _count_batch(span, solver, args, kwargs, result, before):
    span.counts["rows"] = len(result)


def _count_simplify(span, preprocessor, args, kwargs, result, before):
    cnf = args[0] if args else kwargs["cnf"]
    span.counts["clauses_removed"] = len(cnf.clauses) - len(result.cnf.clauses)


def _evaluator_counters(evaluator, args, kwargs):
    return (
        evaluator.num_evaluations,
        evaluator.num_subproblem_solves,
        evaluator.sample_cache_hits,
    )


def _count_predictive(span, evaluator, args, kwargs, result, before):
    evaluations, solves, hits = _evaluator_counters(evaluator, args, kwargs)
    span.counts["evaluations"] = evaluations - before[0]
    span.counts["sample_solves"] = solves - before[1]
    span.counts["sample_hits"] = hits - before[2]


def _count_runner(span, backend, args, kwargs, result, before):
    metadata = result.metadata
    for key in ("dispatches", "retries", "crashes"):
        span.counts[key] = metadata.get(key, 0)
    span.counts["worker_solve_s"] = sum(outcome.wall_time for outcome in result.outcomes)
    span.counts["worker_slots"] = getattr(backend, "processes", None) or 1


#: (layer, module, class, method, counts-before hook, counts-after hook).
LAYERS = (
    ("problems", "repro.api.specs", "InstanceSpec", "build", None, None),
    ("simplify", "repro.sat.simplify", "Preprocessor", "preprocess", None, _count_simplify),
    ("cdcl", "repro.sat.cdcl.solver", "CDCLSolver", "solve", None, _count_solve),
    ("cdcl", "repro.sat.cdcl.solver", "CDCLSolver", "load", None, None),
    ("batch", "repro.sat.cdcl.solver", "CDCLSolver", "solve_batch", None, _count_batch),
    ("predictive", "repro.core.predictive", "PredictiveFunction", "evaluate",
     _evaluator_counters, _count_predictive),
    ("tabu", "repro.core.tabu", "TabuSearchMinimizer", "minimize", None, None),
    ("runner", "repro.api.backends", "SerialBackend", "run", None, _count_runner),
    ("runner", "repro.api.backends", "ProcessPoolBackend", "run", None, _count_runner),
    ("experiment", "repro.api.experiment", "Experiment", "estimate", None, None),
    ("experiment", "repro.api.experiment", "Experiment", "run", None, None),
    ("experiment", "repro.api.experiment", "Experiment", "solve", None, None),
)


def _wrap(recorder: Recorder, layer: str, method: Callable, before_hook, after_hook):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with recorder.span(layer) as span:
            before = before_hook(self, args, kwargs) if before_hook else None
            result = method(self, *args, **kwargs)
            if after_hook is not None:
                after_hook(span, self, args, kwargs, result, before)
            return result

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps them."""
    originals = []
    for layer, module_name, class_name, method_name, before_hook, after_hook in LAYERS:
        owner = getattr(importlib.import_module(module_name), class_name)
        method = owner.__dict__[method_name]
        originals.append((owner, method_name, method))
        setattr(owner, method_name, _wrap(recorder, layer, method, before_hook, after_hook))

    def uninstall() -> None:
        for owner, method_name, method in reversed(originals):
            setattr(owner, method_name, method)

    return uninstall
