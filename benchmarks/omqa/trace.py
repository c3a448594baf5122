"""Spans around the public calls into each layer of the OMQA pipeline.

A :class:`Tracer` replaces each callable listed in :data:`LAYERS` with a
wrapper that records one span per call: ``(id, name, start, end,
parent, op)``.  Functions are replaced in every ``repro`` module that
binds them (``rewrite`` is bound in ``repro.rewriting.engine``,
``repro.rewriting.session``, ``repro.rewriting.answering`` and
``repro.rewriting``), methods on their class.  Nothing inside the
program changes: the spans sit on the boundaries the benchmark calls
through, and the parent of a span is whatever span was open in the
calling context, so nesting is recorded as it happens.

The current span lives in a :class:`contextvars.ContextVar`, so asyncio
tasks keep their own stack.  :class:`PropagatingExecutor` carries the
context across a thread-pool hop, which makes spans on worker threads
children of the request that submitted them.

Spans are kept in memory and written out once, by :func:`dump_spans`.
A span also keeps its call's result when that is an integer (the rows a
store's ``add_many`` added).
:func:`self_times` turns them into per-layer self time (a span minus the
part of its interval its children cover), and :func:`missing_layers`
names the layers a workload should have exercised but did not, so an
import refactor cannot silently zero a layer.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, NamedTuple

# Layer -> the public callables wrapped for it, as "module:qualname" of
# the defining module.
LAYERS: dict[str, tuple[str, ...]] = {
    "parser": (
        "repro.logic.parser:parse_query",
        "repro.logic.parser:parse_instance",
        "repro.logic.parser:parse_theory",
    ),
    "rewrite": ("repro.rewriting.engine:rewrite",),
    "containment": ("repro.logic.containment:is_contained_in",),
    "session": (
        "repro.rewriting.session:OMQASession.answer",
        "repro.rewriting.session:OMQASession.prepare",
        "repro.rewriting.session:OMQASession.compile_sql",
        "repro.rewriting.session:OMQASession.add_facts",
        "repro.rewriting.session:OMQASession.retract_facts",
    ),
    "digest": (
        "repro.storage.base:instance_digest",
        "repro.storage.base:content_digest",
    ),
    "eval_memory": (
        "repro.logic.containment:evaluate_ucq",
        "repro.logic.homomorphism:evaluate",
    ),
    "eval_columnar": ("repro.chase.columnar_kernel:evaluate_ucq_columnar",),
    "columnar_load": (
        "repro.storage.columnar:ColumnarStore.add_many",
        "repro.storage.columnar:ColumnarStore.clear_facts",
    ),
    "sql_compile": ("repro.storage.sqlcompile:compile_ucq",),
    "sql_exec": (
        "repro.storage.sqlcompile:execute_compiled",
        "repro.storage.sqlcompile:evaluate_ucq_sql",
    ),
    "sqlite_load": (
        "repro.storage.sqlite:SQLiteStore.add_many",
        "repro.storage.sqlite:SQLiteStore.reload_catalog",
    ),
    "chase": ("repro.chase.engine:chase",),
    "store_chase": ("repro.storage.chasestore:chase_into_store",),
    "store_update": ("repro.storage.chasestore:update_store_chase",),
    "delta": ("repro.incremental:incremental_update",),
    "http": (
        "repro.service.http:read_request",
        "repro.service.http:encode_response",
    ),
    "serialize": (
        "repro.logic.serialize:query_from_json",
        "repro.logic.serialize:instance_from_json",
    ),
    "service": ("repro.service.app:ServiceApp.dispatch",),
    "registry": (
        "repro.service.registry:TheoryEntry.answer",
        "repro.service.registry:TheoryEntry.apply_update",
        "repro.service.registry:answers_to_json",
        "repro.service.registry:answers_digest",
    ),
}

LAYER_OF: dict[str, str] = {
    target: layer for layer, targets in LAYERS.items() for target in targets
}

# Layers each workload must exercise inside its timed operations.  A
# layer missing here fails the traced run.
EXPECTED: dict[str, tuple[str, ...]] = {
    "answer_cold": (
        "parser", "rewrite", "containment", "session", "digest",
        "eval_memory", "eval_columnar", "sql_compile", "sql_exec",
    ),
    "answer_warm": (
        "parser", "session", "digest", "eval_memory", "eval_columnar",
        "sql_exec",
    ),
    "materialize": ("chase", "store_chase", "columnar_load"),
    "maintain": ("delta",),
    "service_mixed": (
        "parser", "rewrite", "session", "digest", "eval_memory",
        "eval_columnar", "columnar_load", "sql_compile", "sql_exec",
        "sqlite_load", "store_update", "http", "serialize", "service",
        "registry",
    ),
}

# Modules whose import binds the wrapped callables somewhere; importing
# them first lets one scan of sys.modules find every binding.
_BINDING_MODULES = ("repro", "repro.service", "repro.storage", "repro.incremental")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    op: "int | None"
    value: "int | None" = None


# (open span id or None, op id or None) of the calling context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "omqa_bench_span", default=(None, None)
)


class Tracer:
    """Records spans around the callables of :data:`LAYERS`.

    With ``record_all=False`` spans are recorded only inside
    :meth:`op`, so set-up and output checks leave no trace; a server
    records everything (``record_all=True``) and each span that opens
    outside any operation starts an operation of its own.
    """

    def __init__(self, record_all: bool = False) -> None:
        self.record_all = record_all
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def op(self, op_id: int):
        """Mark the enclosed code as timed workload operation ``op_id``."""
        token = _CURRENT.set((None, op_id))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _enter(self):
        span_parent, op = _CURRENT.get()
        if op is None and not self.record_all:
            return None
        span_id = next(self._ids)
        if op is None:
            op = span_id
        return span_id, span_parent, op, _CURRENT.set((span_id, op))

    def _exit(self, name, opened, start, result) -> None:
        span_id, parent, op, token = opened
        end = time.perf_counter()
        _CURRENT.reset(token)
        value = result if type(result) is int else None
        self.spans.append(Span(span_id, name, start, end, parent, op, value))

    def wrap(self, name: str, fn: Callable, before=None) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``before`` (coroutine functions only) is awaited with the call's
        arguments before the span opens.
        """
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if before is not None:
                    await before(*args, **kwargs)
                opened = tracer._enter()
                if opened is None:
                    return await fn(*args, **kwargs)
                start = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    tracer._exit(name, opened, start, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = tracer._enter()
            if opened is None:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(name, opened, start, result)

        return wrapper

    def install(self, layers: "dict[str, Iterable[str]] | None" = None) -> "Tracer":
        """Wrap every listed callable wherever a ``repro`` module binds it."""
        for module_name in _BINDING_MODULES:
            importlib.import_module(module_name)
        for targets in (layers or LAYERS).values():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                before = _await_request_bytes if target.endswith(":read_request") else None
                if "." in qualname:
                    class_name, attr = qualname.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self.wrap(target, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self.wrap(target, original, before)
                for bound in list(sys.modules.values()):
                    if not getattr(bound, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(bound).items()):
                        if value is original:
                            self._patch(bound, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original callable back (reverse order of patching)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)



async def _await_request_bytes(reader, *args, **kwargs) -> None:
    # On a keep-alive connection read_request waits for the client's next
    # request; that idle time is not HTTP work, so the span opens only
    # once bytes are buffered.  StreamReader has no public wait-for-data.
    if not reader._buffer and not reader.at_eof():
        await reader._wait_for_data("read_request")


class PropagatingExecutor(ThreadPoolExecutor):
    """A thread pool that runs each job in its submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


def dump_spans(spans, path) -> None:
    """Write spans as JSON: ``{"spans": [[id, name, start, end, parent, op, value], ...]}``."""
    with open(path, "w", encoding="utf8") as handle:
        json.dump({"spans": [list(span) for span in spans]}, handle)


def load_spans(path) -> list[Span]:
    with open(path, encoding="utf8") as handle:
        return [Span(*row) for row in json.load(handle)["spans"]]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its children cover.

    Children may run on other threads and overlap each other; only the
    union of their intervals inside the parent's counts.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - _covered(children.get(span.id, []), span.start, span.end)
        for span in spans
    }


def layer_totals(spans: Iterable[Span]) -> tuple[Counter, Counter, Counter]:
    """(self seconds, calls, summed integer results) per layer."""
    spans = list(spans)
    own = self_times(spans)
    seconds: Counter = Counter()
    calls: Counter = Counter()
    values: Counter = Counter()
    for span in spans:
        layer = LAYER_OF[span.name]
        seconds[layer] += own[span.id]
        calls[layer] += 1
        values[layer] += span.value or 0
    return seconds, calls, values


def missing_layers(workload: str, calls: Counter) -> list[str]:
    """Layers :data:`EXPECTED` for ``workload`` that recorded no span."""
    return [layer for layer in EXPECTED[workload] if not calls[layer]]
