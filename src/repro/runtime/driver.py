"""The runtime driver: cache lookup, shard dispatch, flush and ordered merge.

:func:`run_plan` is the one entry point the experiment harness calls.  For a
:class:`~repro.runtime.shard.ShardPlan` it

1. looks every task up in the :class:`~repro.runtime.store.ResultStore`
   (when one is attached) and keeps the cache hits,
2. partitions only the *misses* into shards and hands them to the executor
   (a grid plan into one fused launch per shard the executor runs at once,
   any other plan into the executor's ``num_shards`` chunks),
3. flushes each completed shard back to the store the moment it arrives —
   so a killed run resumes shard-by-shard — and
4. merges everything back into per-point metric lists in replicate order.

Because tasks are execution-invariant (see :mod:`repro.runtime.shard`), the
merged output is bit-identical whichever executor ran the misses and however
many of the tasks came from the cache.

Given a :class:`~repro.obs.trace.Tracer`, the driver opens one ``run_plan``
span keyed by the plan's content (the hash of its task keys) and records one
``shard`` span per completed shard — worker-measured wall/CPU time, row
count and rows/s — plus a ``cache_lookup`` event attributing hits vs
misses.  Pool workers and brokers hold no tracer, so this is where every
backend's shard spans are recorded: from the executor's
``last_shard_timing``, which a broker fills from its result frame.  All
span ids derive from task content addresses, so the same plan traces
identically on every backend.  Task keys are derived once, and only when a
store or an enabled tracer needs them; with the default null tracer and no
store none are computed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import get_registry
from repro.obs.trace import resolve_tracer
from repro.runtime.executors import SerialExecutor
from repro.runtime.shard import MODE_GRID, ShardPlan, Task, partition_tasks
from repro.runtime.store import ResultStore, task_keys

PointMetrics = List[List[Dict[str, float]]]
"""Per grid point, one metrics dict per seed (in seed order)."""


def run_plan(
    plan: ShardPlan,
    replication,
    *,
    executor=None,
    store: Optional[ResultStore] = None,
    tracer=None,
) -> PointMetrics:
    """Execute ``plan`` and return per-point metric rows in replicate order.

    This is the only way a sweep or replicated run executes.  ``executor``
    defaults to an in-process :class:`SerialExecutor`.  Without a store it
    runs the pending tasks as one shard; with a store it keeps its default
    flush points.  Grid tasks are split into as many shards as the executor
    reports it runs at once (its ``concurrency``), so a grid sweep is one
    fused launch per worker; backends that report none, like the broker,
    get ``num_shards`` chunks of every plan.  If the executor
    raises (worker crash, ``KeyboardInterrupt``), every shard that completed
    before the failure has already been flushed to the store, so re-running
    the same plan against the same store picks up where the run died.
    ``tracer`` defaults to :data:`~repro.obs.trace.NULL_TRACER`, a no-op.
    """
    if executor is None:
        executor = SerialExecutor() if store is not None else SerialExecutor(1)
    tracer = resolve_tracer(tracer)
    traced = getattr(tracer, "enabled", False)
    keys: Optional[List[str]] = None
    if store is not None:
        keys = store.keys_for(plan.tasks)
    elif traced:
        keys = task_keys(plan.tasks)
    key_by_ordinal = (
        {task.ordinal: key for task, key in zip(plan.tasks, keys)} if traced else {}
    )
    completed: Dict[int, List[Dict[str, float]]] = {}
    with tracer.span(
        "run_plan",
        _content_key(keys) if traced else "",
        attributes={"tasks": len(plan.tasks), "points": plan.num_points},
    ) as span:
        pending = list(plan.tasks)
        if store is not None:
            # One bulk index lookup instead of a query per task: at 10^5
            # cached points the per-call overhead dominates a warm replay
            # otherwise.
            cached = store.get_many(keys)
            pending = []
            for task, key in zip(plan.tasks, keys):
                metrics = cached.get(key)
                if metrics is None:
                    pending.append(task)
                else:
                    completed[task.ordinal] = metrics
            if traced:
                _trace_lookup(tracer, span, len(plan.tasks), len(pending))

        shards = partition_tasks(pending, _shard_count(pending, executor))
        for shard_results in executor.run_shards(shards, replication):
            if store is not None:
                store.put_many(shard_results)
            for task, metrics in shard_results:
                completed[task.ordinal] = metrics
            if traced:
                _trace_shard(tracer, executor, shard_results, key_by_ordinal)
    return _merge(plan, completed)


def _shard_count(pending: Sequence[Task], executor) -> int:
    """One shard per concurrent launch for grid tasks, else ``num_shards``."""
    concurrency = getattr(executor, "concurrency", None)
    if concurrency is not None and pending and pending[0].mode == MODE_GRID:
        return concurrency
    return executor.num_shards


def _merge(plan: ShardPlan, completed: Dict[int, List[Dict[str, float]]]):
    merged: PointMetrics = [[] for _ in range(plan.num_points)]
    for task in plan.tasks:
        merged[task.point_index].extend(completed[task.ordinal])
    return merged


def _content_key(keys: Sequence[str]) -> str:
    """Content address of a group of tasks: the hash of their keys, in order."""
    return hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()


def _trace_lookup(tracer, span, tasks: int, misses: int) -> None:
    """Attribute a plan's cache hits and misses to its span and the registry."""
    registry = get_registry()
    hits = tasks - misses
    registry.counter(
        "repro_plan_cache_hits_total", "Plan tasks served from the result store."
    ).inc(hits)
    registry.counter(
        "repro_plan_cache_misses_total", "Plan tasks that had to execute."
    ).inc(misses)
    span.set_attribute("cache_hits", hits)
    span.set_attribute("cache_misses", misses)
    tracer.event("cache_lookup", {"hits": hits, "misses": misses, "tasks": tasks})


def _trace_shard(tracer, executor, shard_results, key_by_ordinal) -> None:
    """Record one completed shard's span from its worker-measured timing."""
    rows = sum(len(metrics) for _, metrics in shard_results)
    timing = getattr(executor, "last_shard_timing", None) or {}
    wall = float(timing.get("wall_s", 0.0))
    attributes = {"tasks": len(shard_results), "rows": rows}
    if wall > 0.0:
        attributes["rows_per_s"] = rows / wall
    # Shard spans are recorded retroactively — executors yield completed
    # shards in arbitrary order — under a key derived from the shard's task
    # keys, so ids are completion-order- and backend-independent.
    tracer.record_span(
        "shard",
        _content_key([key_by_ordinal[task.ordinal] for task, _ in shard_results]),
        wall_s=wall,
        cpu_s=float(timing.get("cpu_s", 0.0)),
        attributes=attributes,
    )
