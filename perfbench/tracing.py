"""Spans recorded around the serving core's public functions, from outside it.

:class:`Tracer` wraps each layer's public entry points while it is installed:

* module-level functions are replaced at every import site inside the
  ``repro`` package (``build_delegate_vector`` is called through the name
  bound in ``repro.core.drtopk``, for example), so the call a layer really
  makes is the one that is timed;
* methods are wrapped on their classes.

Every call records one :class:`Span` — name, start, end, parent span and the
request id shared by all spans of one request.  Work units that the executor
runs on its worker threads carry their caller's span with them, so a unit's
spans nest under the ``executor.run`` span that scheduled it.  Spans stay in
memory until :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import itertools
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# (module path, attribute, span name): patched at every ``repro`` import site.
FUNCTIONS = [
    ("repro.algorithms.keys", "to_keys", "algorithms.to_keys"),
    ("repro.core.delegate", "build_delegate_vector", "core.construct"),
    ("repro.core.concatenate", "concatenate_subranges", "core.concat"),
    ("repro.service.cache", "fingerprint_array", "cache.fingerprint"),
    ("repro.service.fusion", "fused_group_topk", "fusion.group"),
    ("repro.service.streaming", "merge_candidate_pool", "streaming.merge"),
    ("repro.service.streaming", "order_candidate_pool", "streaming.order"),
]

# (module path, class, method, span name): wrapped on the class.
METHODS = [
    ("repro.algorithms.base", "TopKAlgorithm", "topk", "algorithms.select"),
    ("repro.core.drtopk", "DrTopK", "prepare_with_alpha", "core.prepare"),
    ("repro.core.drtopk", "DrTopK", "topk_prepared", "core.query"),
    ("repro.service.batch", "BatchTopK", "run", "batch.run"),
    ("repro.service.router", "Router", "classify", "router.classify"),
    ("repro.service.router", "Router", "batched_units", "router.plan"),
    ("repro.service.executor", "ServiceExecutor", "run", "executor.run"),
    ("repro.service.store", "VectorStore", "admit", "store.admit"),
    ("repro.service.store", "VectorStore", "evict", "store.evict"),
    ("repro.distributed.multigpu", "MultiGpuDrTopK", "topk_batch", "distributed.topk_batch"),
    ("repro.service.dispatcher", "ServiceDispatcher", "dispatch", "dispatcher.dispatch"),
    ("repro.service.dispatcher", "ServiceDispatcher", "query", "dispatcher.query"),
    ("repro.service.dispatcher", "ServiceDispatcher", "admit", "dispatcher.admit"),
    ("repro.service.dispatcher", "ServiceDispatcher", "evict", "dispatcher.evict"),
]


class Span:
    """One timed call: ``start``/``end`` are ``perf_counter`` seconds."""

    __slots__ = ("id", "parent", "request", "name", "start", "end")

    def __init__(self, sid: int, parent: Optional["Span"], request: int, name: str) -> None:
        self.id = sid
        self.parent = parent.id if parent is not None else 0
        self.request = request
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.roots: Dict[int, Span] = {}
        # (dispatch span, DispatchReport) of traced dispatches, per request.
        self.reports: Dict[int, List[Tuple[Span, Any]]] = {}
        # (concatenated elements, input elements) of pipeline-answered queries.
        self.workload: Dict[int, List[Tuple[int, int]]] = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._saved: List[Tuple[object, str, Any]] = []

    # -- recording -------------------------------------------------------------
    def _open(self, name: str) -> Tuple[Span, contextvars.Token]:
        parent = self._current.get()
        span = Span(next(self._ids), parent, parent.request if parent else 0, name)
        self.spans.append(span)
        return span, self._current.set(span)

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)

    @contextmanager
    def request(self, request_id: int) -> Iterator[Span]:
        """Root span of one request; every span opened inside shares its id."""
        root = Span(next(self._ids), None, request_id, "request")
        self.spans.append(root)
        self.roots[request_id] = root
        token = self._current.set(root)
        try:
            yield root
        finally:
            self._close(root, token)

    def _wrap(self, fn: Callable, name: str, after: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span, token = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span, token)
            if after is not None:
                after(span, args, out)
            return out

        return traced

    # -- what some spans also capture -------------------------------------------
    def _after_dispatch(self, span: Span, args: tuple, out: Any) -> None:
        # One caller thread in traced runs, so last_report is this call's.
        self.reports.setdefault(span.request, []).append((span, args[0].last_report))

    def _note_workload(self, request: int, results: Any) -> None:
        rows = self.workload.setdefault(request, [])
        for res in results:
            if res is not None and res.stats is not None:
                rows.append((res.stats.concatenated_size, res.stats.input_size))

    def _after_fused(self, span: Span, args: tuple, out: Any) -> None:
        self._note_workload(span.request, out.results)

    def _after_query(self, span: Span, args: tuple, out: Any) -> None:
        self._note_workload(span.request, [out])

    def _wrap_executor_run(self, run: Callable) -> Callable:
        """``ServiceExecutor.run`` whose units carry the caller's span along."""
        tracer = self
        unit_run = self._wrap(lambda fn: fn(), "executor.unit")

        def carry(unit: Any, parent: Optional[Span]) -> Any:
            def fn() -> Any:
                token = tracer._current.set(parent)
                try:
                    return unit_run(unit.fn)
                finally:
                    tracer._current.reset(token)

            return dataclasses.replace(unit, fn=fn)

        @functools.wraps(run)
        def traced_run(executor: Any, units: Any, *args: Any, **kwargs: Any) -> Any:
            span, token = tracer._open("executor.run")
            try:
                # Lazy on purpose: the streaming route feeds units as chunks arrive.
                return run(executor, (carry(u, span) for u in units), *args, **kwargs)
            finally:
                tracer._close(span, token)

        return traced_run

    # -- patching --------------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed function and method (idempotent)."""
        if self._saved:
            return
        after = {
            "fusion.group": self._after_fused,
            "core.query": self._after_query,
            "dispatcher.dispatch": self._after_dispatch,
        }
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for module_path, attr, span_name in FUNCTIONS:
            original = getattr(sys.modules[module_path], attr)
            wrapped = self._wrap(original, span_name, after.get(span_name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for module_path, cls_name, method, span_name in METHODS:
            cls = getattr(sys.modules[module_path], cls_name)
            original = cls.__dict__[method]
            if span_name == "executor.run":
                wrapped = self._wrap_executor_run(original)
            else:
                wrapped = self._wrap(original, span_name, after.get(span_name))
            self._saved.append((cls, method, original))
            setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis --------------------------------------------------------------
    def by_request(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.request, []).append(span)
        return out

    def dump(self, path: str) -> None:
        rows = [
            {"id": s.id, "parent": s.parent, "request": s.request, "name": s.name,
             "start_ms": s.start * 1e3, "end_ms": s.end * 1e3}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def covered_ms(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Milliseconds of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total * 1e3


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per span name, total self time (ms): duration minus what children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[str, float] = {}
    for span in spans:
        own = span.ms - covered_ms(children.get(span.id, []), span.start, span.end)
        out[span.name] = out.get(span.name, 0.0) + own
    return out
