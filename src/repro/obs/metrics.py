"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a named collection of metric families.  Every
mutation — :meth:`Counter.inc`, :meth:`Gauge.set`, :meth:`Histogram.observe`
— serialises on one registry lock, so concurrent writers (the daemon's job
workers, the runtime driver, HTTP threads) can share a registry without torn
reads: a hammer of N threads x M increments lands on exactly ``N * M``.

Labels are **frozen tuples** of ``(name, value)`` pairs, sorted by name, so
``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}`` address the same series.  Each
metric family therefore maps label tuples to scalar series, exactly like the
Prometheus data model.

Two read paths:

* :meth:`MetricsRegistry.snapshot` — a plain-dict view for programmatic
  assertions and the job queue's quantile lookups; and
* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text exposition
  format (``# HELP``/``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  histogram series) the daemon serves at ``GET /v1/metrics``.

Registries also accept **collectors** — callables returning sample lines at
exposition time.  The daemon bridges the result store's hit/miss
:class:`~repro.runtime.store.StoreCounters` and row count through a
collector, so the store values in ``/v1/metrics`` are read from the very
same ``store.counters()`` snapshot ``/v1/stats`` serves and the two
endpoints can never structurally disagree.

A process-wide default registry (:func:`get_registry`) collects runtime-side
metrics (shard throughput, dispatch latency, requeues); components that need
isolation (one per daemon, one per test) construct their own.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

LabelPairs = Tuple[Tuple[str, str], ...]
"""Canonical label form: a name-sorted tuple of (label, value) string pairs."""

DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)
"""Seconds-scale histogram buckets covering sub-ms dispatch to minute-long jobs."""


def freeze_labels(labels: Optional[Dict[str, Any]]) -> LabelPairs:
    """Canonicalise a label dict into the frozen, name-sorted tuple form."""
    if not labels:
        return ()
    return tuple(sorted((str(name), str(value)) for name, value in labels.items()))


def _validate_name(name: str) -> str:
    if not name or not all(ch.isalnum() or ch == "_" for ch in name):
        raise ValueError(
            f"metric names are [a-zA-Z0-9_]+ (prometheus-safe), got {name!r}"
        )
    return name


def _format_value(value: float) -> str:
    """Prometheus sample rendering: integers bare, floats via repr, +Inf spelled."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_sample(name: str, labels: LabelPairs, value: float) -> str:
    """One exposition line: ``name{label="value",...} value``."""
    if labels:
        rendered = ",".join(
            f'{label}="{_escape_label_value(value_)}"' for label, value_ in labels
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class _Metric:
    """Shared bookkeeping of one metric family; mutation goes via the registry lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        self.name = _validate_name(name)
        self.help = help_text
        self._lock = lock

    def _sample_lines(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing count, one series per label tuple."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        super().__init__(name, help_text, lock)
        self._values: Dict[LabelPairs, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the series selected by ``labels``."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        key = freeze_labels(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        key = freeze_labels(labels)
        with self._lock:
            return self._values.get(key, 0)

    def _sample_lines(self) -> List[str]:
        return [
            format_sample(self.name, labels, value)
            for labels, value in sorted(self._values.items())
        ]


class Gauge(_Metric):
    """A value that can go up and down (in-flight shards, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, lock: threading.Lock) -> None:
        super().__init__(name, help_text, lock)
        self._values: Dict[LabelPairs, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[freeze_labels(labels)] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = freeze_labels(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = freeze_labels(labels)
        with self._lock:
            return self._values.get(key, 0)

    def _sample_lines(self) -> List[str]:
        return [
            format_sample(self.name, labels, value)
            for labels, value in sorted(self._values.items())
        ]


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are the finite upper bounds, strictly increasing; a final
    ``+Inf`` bucket is implicit.  Observations accumulate into every bucket
    whose bound is >= the value (cumulative), plus ``_sum`` and ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, lock)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one finite bucket bound")
        if any(not math.isfinite(bound) for bound in bounds):
            raise ValueError(f"bucket bounds must be finite, got {bounds}")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.buckets = bounds
        self._counts: Dict[LabelPairs, List[int]] = {}
        self._sums: Dict[LabelPairs, float] = {}
        self._totals: Dict[LabelPairs, int] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the series selected by ``labels``."""
        value = float(value)
        key = freeze_labels(labels)
        with self._lock:
            counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
            counts[-1] += 1  # the implicit +Inf bucket
            self._sums[key] = self._sums.get(key, 0.0) + value
            self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: Any) -> int:
        with self._lock:
            return self._totals.get(freeze_labels(labels), 0)

    def sum(self, **labels: Any) -> float:
        with self._lock:
            return self._sums.get(freeze_labels(labels), 0.0)

    def quantile(self, q: float, **labels: Any) -> Optional[float]:
        """Bucket-resolution quantile estimate (linear within the bucket).

        Returns ``None`` with no observations.  The estimate interpolates
        inside the bucket containing the ``q``-th observation, using the
        previous bound as the bucket floor (0 for the first bucket); values
        beyond the last finite bound clamp to that bound — fixed buckets
        cannot resolve further.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        key = freeze_labels(labels)
        with self._lock:
            counts = self._counts.get(key)
            total = self._totals.get(key, 0)
            if not counts or total == 0:
                return None
            rank = q * total
            previous_bound = 0.0
            previous_count = 0
            for index, bound in enumerate(self.buckets):
                cumulative = counts[index]
                if cumulative >= rank:
                    in_bucket = cumulative - previous_count
                    if in_bucket == 0:
                        return bound
                    fraction = (rank - previous_count) / in_bucket
                    return previous_bound + fraction * (bound - previous_bound)
                previous_bound = bound
                previous_count = cumulative
            return self.buckets[-1]

    def _sample_lines(self) -> List[str]:
        lines: List[str] = []
        for labels in sorted(self._counts):
            counts = self._counts[labels]
            for index, bound in enumerate(self.buckets):
                bucket_labels = labels + (("le", _format_value(bound)),)
                lines.append(
                    format_sample(f"{self.name}_bucket", bucket_labels, counts[index])
                )
            lines.append(
                format_sample(
                    f"{self.name}_bucket", labels + (("le", "+Inf"),), counts[-1]
                )
            )
            lines.append(
                format_sample(f"{self.name}_sum", labels, self._sums[labels])
            )
            lines.append(
                format_sample(f"{self.name}_count", labels, self._totals[labels])
            )
        return lines


CollectorSample = Tuple[str, str, str, Dict[str, Any], float]
"""One collector sample: ``(name, kind, help, labels, value)``."""

Collector = Callable[[], Iterable[CollectorSample]]


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking again for
    an existing name returns the existing family (so independent call sites
    share series), but asking with a *different* kind — or different buckets
    for a histogram — is a programming error and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, _Metric]" = {}
        self._collectors: List[Collector] = []

    def _get_or_create(self, cls: type, name: str, help_text: str, **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}"  # type: ignore[attr-defined]
                    )
                buckets = kwargs.get("buckets")
                if buckets is not None and tuple(
                    float(bound) for bound in buckets
                ) != getattr(existing, "buckets", None):
                    raise ValueError(
                        f"histogram {name!r} is already registered with "
                        f"buckets {existing.buckets}"  # type: ignore[attr-defined]
                    )
                return existing
            metric = cls(name, help_text, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    def register_collector(self, collector: Collector) -> None:
        """Add an exposition-time sample source."""
        with self._lock:
            self._collectors.append(collector)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict view of every registered series (not collector samples)."""
        with self._lock:
            metrics = list(self._metrics.values())
        out: Dict[str, Dict[str, Any]] = {}
        for metric in metrics:
            if isinstance(metric, Histogram):
                with self._lock:
                    out[metric.name] = {
                        "kind": metric.kind,
                        "buckets": metric.buckets,
                        "counts": {
                            labels: list(counts)
                            for labels, counts in metric._counts.items()
                        },
                        "sum": dict(metric._sums),
                        "count": dict(metric._totals),
                    }
            else:
                with self._lock:
                    out[metric.name] = {
                        "kind": metric.kind,
                        "values": dict(metric._values),  # type: ignore[attr-defined]
                    }
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every metric plus collector samples."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda metric: metric.name)
            collectors = list(self._collectors)
        lines: List[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            with self._lock:
                lines.extend(metric._sample_lines())
        for collector in collectors:
            for name, kind, help_text, labels, value in collector():
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                lines.append(format_sample(name, freeze_labels(labels), value))
        return "\n".join(lines) + "\n"


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (runtime/executor/broker metrics)."""
    return _REGISTRY
