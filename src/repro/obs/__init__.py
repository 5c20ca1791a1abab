"""Observability: metrics registry, deterministic tracing, trace summaries.

Stdlib-only.  :mod:`repro.obs.metrics` holds the thread-safe
:class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges, fixed-bucket
histograms, Prometheus text exposition); :mod:`repro.obs.trace` holds the
content-address-derived :class:`~repro.obs.trace.Tracer` with its JSONL and
in-memory sinks; :mod:`repro.obs.summary` turns a JSONL trace into a
per-phase latency table.  The defaults — a process-wide registry and a
null tracer — make instrumentation zero-cost until a run is given a tracer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "metrics": (
            "DEFAULT_LATENCY_BUCKETS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "format_sample",
            "freeze_labels",
            "get_registry",
        ),
        "summary": (
            "PhaseSummary",
            "load_records",
            "render_summary",
            "summarize_records",
            "summarize_trace_file",
        ),
        "trace": (
            "EVENT",
            "NULL_TRACER",
            "SPAN_END",
            "SPAN_START",
            "TRACE_OUT_ENV",
            "JsonlSink",
            "MemorySink",
            "NullTracer",
            "Span",
            "SpanContext",
            "TeeSink",
            "Tracer",
            "current_context",
            "current_span",
            "resolve_tracer",
            "span_id_for",
            "trace_id_for_key",
            "validate_record",
        ),
    },
)
