"""Deterministic tracing: spans, content-derived ids, JSONL/memory sinks.

A **span** is one timed unit of work (a shard, a campaign node, a job); a
**trace** is the tree of spans hanging off one root.  Unlike wall-clock-id
tracers, every id here is a pure function of *content*:

* ``trace_id_for_key(key)`` hashes the root's content address (a task/
  request/campaign SHA-256), and
* child span ids hash ``(trace_id, parent_span_id, name, key)``.

Two runs of the same workload — on any backend, any worker count, any cache
state — therefore produce the *same* span ids, which makes traces diffable
and keeps instrumentation out of the determinism contract: nothing
downstream of a simulation can observe a timestamp through its ids.
Timestamps appear only as observational fields (``ts``, ``wall_s``,
``cpu_s``) on the emitted records.

Records are flat JSON objects (one per line in the JSONL sink)::

    {"event": "span_start", "ts": ..., "trace": ..., "span": ...,
     "parent": ... | null, "name": ..., "key": ..., "attributes": {...}}
    {"event": "span_end",   ... same ids ..., "wall_s": ..., "cpu_s": ...,
     "attributes": {...}}
    {"event": "event", "ts": ..., "trace": ..., "span": ..., "name": ...,
     "attributes": {...}}

The **null tracer** (:data:`NULL_TRACER`, the process default) makes
instrumentation zero-cost-when-off: ``span()`` hands back one shared no-op
context manager and ``event()``/``record_span()`` return immediately — no
ids are computed, nothing is allocated per call.  Enable tracing by
installing a real :class:`Tracer` (:func:`set_tracer`), passing one through
:class:`~repro.runtime.options.ExecutionOptions`, or exporting
``REPRO_TRACE_OUT=trace.jsonl`` (the CLI's ``--trace-out`` flag).

Context propagates three ways:

* in-process via a :mod:`contextvars` current-span variable (``with
  tracer.span(...):`` nests children automatically, per thread);
* into ``ParallelExecutor`` worker processes with each shard, which the
  worker installs with :func:`set_ambient_context` so worker-side spans
  join the trace of the call that submitted the shard; and
* across the broker wire protocol as a ``trace`` field on shard frames
  (:mod:`repro.campaign.broker`).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from contextvars import ContextVar
from typing import Any, Dict, List, Optional, Tuple

TRACE_OUT_ENV = "REPRO_TRACE_OUT"
"""Environment variable naming a JSONL trace output path (the CLI default)."""

SPAN_START = "span_start"
SPAN_END = "span_end"
EVENT = "event"

RECORD_KINDS = (SPAN_START, SPAN_END, EVENT)


def trace_id_for_key(key: str) -> str:
    """Deterministic 128-bit trace id derived from a content address."""
    return hashlib.sha256(f"repro.trace:{key}".encode("utf-8")).hexdigest()[:32]


def span_id_for(trace_id: str, parent_id: Optional[str], name: str, key: str) -> str:
    """Deterministic 64-bit span id from (trace, parent, name, content key)."""
    material = f"{trace_id}/{parent_id or ''}/{name}/{key}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


class SpanContext(Tuple[str, str]):
    """An immutable ``(trace_id, span_id)`` pair — what propagates across hops."""

    __slots__ = ()

    def __new__(cls, trace_id: str, span_id: str) -> "SpanContext":
        return tuple.__new__(cls, (trace_id, span_id))

    @property
    def trace_id(self) -> str:
        return self[0]

    @property
    def span_id(self) -> str:
        return self[1]


_CURRENT: "ContextVar[Optional[SpanContext]]" = ContextVar(
    "repro_current_span", default=None
)

# Ambient fallback for execution contexts that cannot inherit the parent's
# contextvars: ParallelExecutor worker processes (set from each shard's trace
# context) and broker processes (set from the shard frame's trace field).
_AMBIENT: Optional[SpanContext] = None


def set_ambient_context(
    trace_id: Optional[str], span_id: Optional[str]
) -> None:
    """Install (or clear, with ``None``) the process-level fallback context."""
    global _AMBIENT
    if trace_id is None or span_id is None:
        _AMBIENT = None
    else:
        _AMBIENT = SpanContext(str(trace_id), str(span_id))


def current_context() -> Optional[SpanContext]:
    """The active span context: the contextvar, else the ambient fallback."""
    context = _CURRENT.get()
    return context if context is not None else _AMBIENT


def validate_record(record: Any) -> List[str]:
    """Schema-check one trace record; returns the violations (empty = valid)."""
    problems: List[str] = []
    if not isinstance(record, dict):
        return [f"record is not an object: {record!r}"]
    kind = record.get("event")
    if kind not in RECORD_KINDS:
        problems.append(f"unknown event kind {kind!r}")
        return problems
    for field, types in (
        ("ts", (int, float)),
        ("trace", str),
        ("span", str),
        ("name", str),
    ):
        if not isinstance(record.get(field), types):
            problems.append(f"{kind} record missing/invalid {field!r}")
    if "attributes" in record and not isinstance(record["attributes"], dict):
        problems.append(f"{kind} record has non-object attributes")
    if kind in (SPAN_START, SPAN_END):
        parent = record.get("parent")
        if parent is not None and not isinstance(parent, str):
            problems.append(f"{kind} record has non-string parent")
        if not isinstance(record.get("key"), str):
            problems.append(f"{kind} record missing/invalid 'key'")
    if kind == SPAN_END:
        for field in ("wall_s", "cpu_s"):
            if not isinstance(record.get(field), (int, float)):
                problems.append(f"span_end record missing/invalid {field!r}")
    return problems


class JsonlSink:
    """Append trace records to a JSONL file, one object per line, thread-safe."""

    def __init__(self, path: Any) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(self.path))
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class MemorySink:
    """Bounded in-memory record buffer, grouped by trace id.

    The daemon keeps one of these so ``GET /v1/jobs/<id>/trace`` can return a
    job's span tree without any file configured.  Oldest traces are evicted
    once ``max_traces`` accumulate; each trace keeps at most ``max_records``
    records (a ``truncated`` marker is set past that).
    """

    def __init__(self, max_traces: int = 256, max_records: int = 4096) -> None:
        if max_traces <= 0 or max_records <= 0:
            raise ValueError("MemorySink bounds must be positive")
        self.max_traces = max_traces
        self.max_records = max_records
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def emit(self, record: Dict[str, Any]) -> None:
        trace_id = record.get("trace")
        if not isinstance(trace_id, str):
            return
        with self._lock:
            entry = self._traces.get(trace_id)
            if entry is None:
                entry = {"records": [], "truncated": False}
                self._traces[trace_id] = entry
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            if len(entry["records"]) >= self.max_records:
                entry["truncated"] = True
                return
            entry["records"].append(record)

    def records(self, trace_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            entry = self._traces.get(trace_id)
            return list(entry["records"]) if entry is not None else []

    def truncated(self, trace_id: str) -> bool:
        with self._lock:
            entry = self._traces.get(trace_id)
            return bool(entry["truncated"]) if entry is not None else False

    def close(self) -> None:  # symmetric with JsonlSink
        with self._lock:
            self._traces.clear()


class TeeSink:
    """Fan one record out to several sinks (memory buffer + JSONL file)."""

    def __init__(self, *sinks: Any) -> None:
        self.sinks = tuple(sink for sink in sinks if sink is not None)

    def emit(self, record: Dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class Span:
    """One active span; use via ``with tracer.span(...) as span:``."""

    __slots__ = (
        "tracer",
        "name",
        "key",
        "context",
        "parent_id",
        "attributes",
        "_token",
        "_wall_start",
        "_cpu_start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        key: str,
        context: SpanContext,
        parent_id: Optional[str],
        attributes: Optional[Dict[str, Any]],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.key = key
        self.context = context
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self._token = None
        self._wall_start = 0.0
        self._cpu_start = 0.0

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    def set_attribute(self, name: str, value: Any) -> None:
        """Attach ``name=value`` to the span's end record."""
        self.attributes[name] = value

    def event(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> None:
        """Emit a point event inside this span."""
        self.tracer._emit_event(name, attributes, self.context)

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self.context)
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        self.tracer._emit(
            {
                "event": SPAN_START,
                "ts": time.time(),
                "trace": self.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "name": self.name,
                "key": self.key,
                "attributes": dict(self.attributes),
            }
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall_start
        cpu = time.process_time() - self._cpu_start
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.tracer._emit(
            {
                "event": SPAN_END,
                "ts": time.time(),
                "trace": self.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "name": self.name,
                "key": self.key,
                "wall_s": wall,
                "cpu_s": cpu,
                "attributes": dict(self.attributes),
            }
        )


class _NullSpan:
    """Shared no-op span: every method returns immediately."""

    __slots__ = ()

    trace_id = ""
    span_id = ""
    context = None
    attributes: Dict[str, Any] = {}

    def set_attribute(self, name: str, value: Any) -> None:
        pass

    def event(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: no ids computed, nothing emitted, ever."""

    enabled = False

    def span(self, name: str, key: str = "", **_: Any) -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, *args: Any, **kwargs: Any) -> None:
        pass

    def event(self, *args: Any, **kwargs: Any) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Emit deterministic spans and events into a sink.

    ``sink`` is anything with ``emit(record)`` (:class:`JsonlSink`,
    :class:`MemorySink`, :class:`TeeSink`).  Spans opened without an explicit
    parent attach to the current context (contextvar, then ambient); a span
    with no context anywhere becomes a trace root whose trace id derives
    from its own content key.
    """

    enabled = True

    def __init__(self, sink: Any) -> None:
        self.sink = sink

    # -- internals ----------------------------------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        self.sink.emit(record)

    def _emit_event(
        self,
        name: str,
        attributes: Optional[Dict[str, Any]],
        context: Optional[SpanContext],
    ) -> None:
        context = context if context is not None else current_context()
        if context is None:
            # An event with no enclosing span still records, under a trace
            # id derived from its own name so sinks can group it.
            context = SpanContext(trace_id_for_key(f"event:{name}"), "")
        self._emit(
            {
                "event": EVENT,
                "ts": time.time(),
                "trace": context.trace_id,
                "span": context.span_id,
                "name": name,
                "attributes": dict(attributes or {}),
            }
        )

    def _derive(
        self, name: str, key: str, parent: Optional[SpanContext]
    ) -> Tuple[SpanContext, Optional[str]]:
        parent = parent if parent is not None else current_context()
        if parent is None:
            trace_id = trace_id_for_key(key)
            return SpanContext(trace_id, span_id_for(trace_id, None, name, key)), None
        span_id = span_id_for(parent.trace_id, parent.span_id, name, key)
        return SpanContext(parent.trace_id, span_id), parent.span_id

    # -- public api ---------------------------------------------------------

    def span(
        self,
        name: str,
        key: str = "",
        *,
        attributes: Optional[Dict[str, Any]] = None,
        parent: Optional[SpanContext] = None,
    ) -> Span:
        """A context manager timing one unit of work named ``name``.

        ``key`` is the content address the span's deterministic id derives
        from — a store task key, request key or campaign key.
        """
        context, parent_id = self._derive(name, key, parent)
        return Span(self, name, key, context, parent_id, attributes)

    def record_span(
        self,
        name: str,
        key: str,
        *,
        wall_s: float,
        cpu_s: float = 0.0,
        attributes: Optional[Dict[str, Any]] = None,
        parent: Optional[SpanContext] = None,
    ) -> SpanContext:
        """Record an already-measured span (start + end emitted back to back).

        Used for work that completed elsewhere — a shard measured in a
        worker process or behind the broker wire — where the caller learns
        the timings only on completion.
        """
        context, parent_id = self._derive(name, key, parent)
        now = time.time()
        base = {
            "trace": context.trace_id,
            "span": context.span_id,
            "parent": parent_id,
            "name": name,
            "key": key,
        }
        self._emit(
            {"event": SPAN_START, "ts": now - wall_s, "attributes": {}, **base}
        )
        self._emit(
            {
                "event": SPAN_END,
                "ts": now,
                "wall_s": float(wall_s),
                "cpu_s": float(cpu_s),
                "attributes": dict(attributes or {}),
                **base,
            }
        )
        return context

    def event(
        self, name: str, attributes: Optional[Dict[str, Any]] = None
    ) -> None:
        """Emit a point event attached to the current span context."""
        self._emit_event(name, attributes, None)

    def close(self) -> None:
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()


_TRACER_LOCK = threading.Lock()
_TRACER: Any = NULL_TRACER


def get_tracer() -> Any:
    """The process-wide tracer (:data:`NULL_TRACER` unless one was installed)."""
    return _TRACER


def set_tracer(tracer: Optional[Any]) -> Any:
    """Install ``tracer`` process-wide (``None`` restores the null tracer).

    Returns the previous tracer so callers can restore it.
    """
    global _TRACER
    with _TRACER_LOCK:
        previous = _TRACER
        _TRACER = tracer if tracer is not None else NULL_TRACER
        return previous


def tracer_from_env() -> Any:
    """A JSONL tracer for ``$REPRO_TRACE_OUT``, else the null tracer."""
    path = os.environ.get(TRACE_OUT_ENV)
    if path:
        return Tracer(JsonlSink(path))
    return NULL_TRACER


def resolve_tracer(tracer: Optional[Any]) -> Any:
    """``tracer`` if given, else the installed process tracer."""
    return tracer if tracer is not None else _TRACER
