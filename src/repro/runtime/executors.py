"""Pluggable shard executors: in-process serial and multi-process parallel.

Both executors consume shards (lists of :class:`~repro.runtime.shard.Task`)
and yield ``(task, metrics)`` pairs one completed shard at a time, so the
driver can flush each shard to the :class:`~repro.runtime.store.ResultStore`
the moment it finishes — that per-shard flush is what makes interrupted runs
resumable.  Because every shard runs through the same
:func:`~repro.runtime.shard.execute_shard` compute path and every task
depends only on its own ``(function, parameters, seeds)``, the two executors
(at any worker count) produce bit-identical metrics; only wall-clock
differs.

:class:`ParallelExecutor` ships tasks to ``ProcessPoolExecutor`` workers as
plain picklable data.  Workers resolve the replication function from its
``module:qualname`` reference and construct engines on their side, so the
parent process never pickles engines, environments or closures.  The
replication function must therefore live at module level; closures fall back
to :class:`SerialExecutor` (or raise, with a pointer, under the parallel
executor).
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, get_registry
from repro.obs.trace import current_context, set_ambient_context
from repro.runtime.shard import Task, execute_shard

ShardResults = List[Tuple[Task, List[Dict[str, float]]]]
"""One completed shard: each task paired with its per-seed metric rows."""

ShardTiming = Dict[str, float]
"""Worker-measured timings for one shard: ``wall_s`` and ``cpu_s``."""


@lru_cache(maxsize=64)
def resolve_replication(reference: str) -> Callable:
    """Import the replication function behind a ``module:qualname`` reference."""
    module_name, _, qualified_name = reference.partition(":")
    if not module_name or not qualified_name:
        raise ValueError(f"malformed function reference {reference!r}")
    module = importlib.import_module(module_name)
    target = module
    for part in qualified_name.split("."):
        target = getattr(target, part)
    return target


def _worker_initializer(
    extra_sys_path: Sequence[str],
    trace_context: Optional[Tuple[str, str]] = None,
) -> None:
    """Make the parent's package importable in spawn-started workers.

    Also installs the parent's trace context as the worker's ambient span
    context, so any events the worker emits join the parent trace.
    """
    for entry in extra_sys_path:  # pragma: no cover - runs in worker processes
        if entry not in sys.path:
            sys.path.insert(0, entry)
    if trace_context is not None:  # pragma: no cover - runs in worker processes
        set_ambient_context(trace_context[0], trace_context[1])


def _execute_shard(tasks: Sequence[Task]) -> ShardResults:
    """Worker-side entry point: run one shard of one plan's tasks."""
    if not tasks:
        return []
    return execute_shard(tasks, resolve_replication(tasks[0].function_ref))


def _execute_shard_timed(
    tasks: Sequence[Task],
) -> Tuple[ShardResults, ShardTiming]:
    """Run one shard and report worker-measured wall and CPU seconds.

    The timings are measured where the work happens, so the parent can
    attribute the remainder of a shard's parent-side latency to dispatch
    (pickling, queueing, result transfer) rather than compute.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    results = _execute_shard(tasks)
    return results, {
        "wall_s": time.perf_counter() - wall_start,
        "cpu_s": time.process_time() - cpu_start,
    }


class SerialExecutor:
    """Zero-dependency in-process executor (the default).

    ``num_shards`` only sets the flush granularity when a store is attached
    and how many grid points share a fused launch; it never changes results.
    """

    def __init__(self, num_shards: int = 8) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        #: Timing of the most recently yielded shard (read by the driver
        #: right after each ``run_shards`` yield to label shard spans).
        self.last_shard_timing: Optional[ShardTiming] = None

    def run_shards(
        self, shards: Sequence[Sequence[Task]], replication: Callable
    ) -> Iterator[ShardResults]:
        """Run each shard in order, yielding it as soon as it completes."""
        for shard in shards:
            wall_start = time.perf_counter()
            cpu_start = time.process_time()
            results = execute_shard(shard, replication)
            self.last_shard_timing = {
                "wall_s": time.perf_counter() - wall_start,
                "cpu_s": time.process_time() - cpu_start,
            }
            yield results


class ParallelExecutor:
    """``ProcessPoolExecutor``-backed executor with chunked shard dispatch.

    Parameters
    ----------
    max_workers:
        Worker process count (default: ``os.cpu_count()``).
    shards_per_worker:
        Dispatch granularity — the plan's pending tasks are chunked into
        ``max_workers * shards_per_worker`` shards so slow tasks cannot
        starve the pool and store flushes happen throughout the run.
    mp_context:
        Optional :mod:`multiprocessing` context; the platform default
        (``fork`` on Linux) keeps worker start-up cheap, while ``spawn``
        workers re-import the library via the recorded ``sys.path``.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        shards_per_worker: int = 4,
        mp_context=None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if shards_per_worker <= 0:
            raise ValueError(
                f"shards_per_worker must be positive, got {shards_per_worker}"
            )
        self.max_workers = max_workers
        self.shards_per_worker = shards_per_worker
        self.mp_context = mp_context
        #: Worker-measured timing of the most recently yielded shard.
        self.last_shard_timing: Optional[ShardTiming] = None

    @property
    def num_shards(self) -> int:
        """Default number of dispatch chunks for a plan's pending tasks."""
        return self.max_workers * self.shards_per_worker

    def _check_resolvable(self, replication: Callable) -> None:
        # Imported lazily: repro.runtime.backend imports this module.
        from repro.runtime.backend import check_resolvable

        check_resolvable(replication, "ParallelExecutor")

    def run_shards(
        self, shards: Sequence[Sequence[Task]], replication: Callable
    ) -> Iterator[ShardResults]:
        """Run shards across the pool, yielding each as it completes.

        Completion order is arbitrary; the driver reassembles results by
        task ordinal, so ordering here is irrelevant to correctness.
        """
        if not shards:
            return
        self._check_resolvable(replication)
        # Workers started with "spawn" know nothing of the parent's
        # sys.path; record the library location so they can re-import it.
        # The parent's span context rides along so worker-side events join
        # the parent trace.
        package_root = _repro_import_root()
        context = current_context()
        trace_context = (context.trace_id, context.span_id) if context else None
        registry = get_registry()
        in_flight = registry.gauge(
            "repro_shards_in_flight",
            "Shards currently submitted to an execution backend.",
        )
        dispatch = registry.histogram(
            "repro_shard_dispatch_overhead_seconds",
            "Parent-side shard latency minus worker-measured wall time "
            "(pickling, pool queueing, result transfer).",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        completed = registry.counter(
            "repro_shards_completed_total",
            "Shards completed, by execution backend.",
        )
        pool = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=self.mp_context,
            initializer=_worker_initializer,
            initargs=((package_root,), trace_context),
        )
        try:
            submitted = time.perf_counter()
            pending = {
                pool.submit(_execute_shard_timed, list(shard)) for shard in shards
            }
            in_flight.inc(len(pending), backend="parallel")
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    results, timing = future.result()
                    in_flight.dec(backend="parallel")
                    completed.inc(backend="parallel")
                    elapsed = time.perf_counter() - submitted
                    dispatch.observe(
                        max(0.0, elapsed - timing["wall_s"]), backend="parallel"
                    )
                    self.last_shard_timing = timing
                    yield results
        except BaseException:
            # Abort path (worker crash, KeyboardInterrupt, abandoned
            # generator): drop every not-yet-started shard and return
            # *without* joining the pool — a `with pool:` exit would block
            # until in-flight shards finish, hanging a Ctrl-C for as long as
            # the slowest running shard.  Workers still running their
            # current shard exit on their own once it completes.
            in_flight.dec(len(pending), backend="parallel")
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown(wait=True)


def _repro_import_root() -> str:
    """Directory that must be on ``sys.path`` for ``import repro`` to work."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
