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

:class:`ParallelExecutor` keeps one ``ProcessPoolExecutor`` for its lifetime,
shared by every ``run_shards`` call and thread.  It starts the pool from a
``forkserver`` context: a single-threaded server process that preloads the
runtime and replication modules forks warm workers, so a threaded parent
never forks itself.  Tasks travel as plain picklable data.  Workers resolve
the replication function from its ``module:qualname`` reference and
construct engines on their side, so the parent process never pickles
engines, environments or closures.  The replication function must therefore
live at module level; closures fall back to :class:`SerialExecutor` (or
raise, with a pointer, under the parallel executor).  Workers re-import a
script's main module, so such a script needs an ``if __name__ ==
"__main__":`` guard.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, get_registry
from repro.obs.trace import current_context, set_ambient_context
from repro.runtime.shard import Task, execute_shard

ShardResults = List[Tuple[Task, List[Dict[str, float]]]]
"""One completed shard: each task paired with its per-seed metric rows."""

ShardTiming = Dict[str, float]
"""Worker-measured timings for one shard: ``wall_s`` and ``cpu_s``."""

#: What the forkserver imports once for all its workers: what
#: ``python -m repro`` imports, the runtime and the replication modules.
_PRELOAD = ["repro.cli", "repro.runtime"] + [
    f"repro.experiments.{kind}_sweep" for kind in ("dynamics", "network", "protocol")
]


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


def _execute_shard(tasks: Sequence[Task]) -> ShardResults:
    """Worker-side entry point: run one shard of one plan's tasks."""
    if not tasks:
        return []
    return execute_shard(tasks, resolve_replication(tasks[0].function_ref))


def _execute_shard_timed(
    tasks: Sequence[Task], trace_context: Optional[Tuple[str, str]] = None
) -> Tuple[ShardResults, ShardTiming]:
    """Run one shard and report worker-measured wall and CPU seconds.

    The timings are measured where the work happens, so the parent can
    attribute the remainder of a shard's parent-side latency to dispatch
    (pickling, queueing, result transfer) rather than compute.
    ``trace_context`` becomes the worker's ambient span context for this
    shard, so worker-side events join the trace of the call that sent it.
    """
    set_ambient_context(*(trace_context or (None, None)))
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    results = _execute_shard(tasks)
    return results, {
        "wall_s": time.perf_counter() - wall_start,
        "cpu_s": time.process_time() - cpu_start,
    }


class SerialExecutor:
    """Zero-dependency in-process executor (the default).

    It runs one shard at a time (``concurrency`` 1), so the driver hands it
    a grid plan as one fused launch.  ``num_shards`` chunks loop and batched
    plans, which sets the store's flush points; it never changes results.
    """

    #: Shards this executor runs at once.
    concurrency = 1

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
    """Executor over one warm ``ProcessPoolExecutor``, shared by every caller.

    Parameters
    ----------
    max_workers:
        Worker process count (default: ``os.cpu_count()``).
    shards_per_worker:
        Dispatch granularity of loop and batched plans — their pending
        tasks are chunked into ``max_workers * shards_per_worker`` shards so
        slow tasks cannot starve the pool and store flushes happen
        throughout the run.  A grid plan runs as ``max_workers`` shards, one
        fused launch per worker (see :func:`~repro.runtime.driver.run_plan`).

    The pool starts at the first pooled shard and lives until :meth:`close`.
    Each :meth:`run_shards` call waits only on its own shards; one that
    fails or is abandoned cancels only its own queued shards.  A pool that
    broke (a worker died) or refused a submit is discarded: the calls it
    affected raise, and the next call starts a fresh pool.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        shards_per_worker: int = 4,
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
        self._pool = None
        self._closed = False
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def num_shards(self) -> int:
        """Dispatch chunks for a loop or batched plan's pending tasks."""
        return self.max_workers * self.shards_per_worker

    @property
    def concurrency(self) -> int:
        """Shards this executor runs at once: one per worker process."""
        return self.max_workers

    @property
    def last_shard_timing(self) -> Optional[ShardTiming]:
        """Worker-measured timing of the shard last yielded to this thread."""
        return getattr(self._local, "timing", None)

    def _check_resolvable(self, replication: Callable) -> None:
        # Imported lazily: repro.runtime.backend imports this module.
        from repro.runtime.backend import check_resolvable

        check_resolvable(replication, "ParallelExecutor")

    def _started_pool(self):
        """The shared pool, started on first use."""
        with self._lock:
            if self._closed:
                raise RuntimeError("ParallelExecutor is closed")
            if self._pool is None:
                # Imported here: only a pooled run needs multiprocessing.
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                context = multiprocessing.get_context("forkserver")
                context.set_forkserver_preload(_PRELOAD)
                self._pool = ProcessPoolExecutor(self.max_workers, mp_context=context)
                get_registry().counter(
                    "repro_worker_pools_started_total",
                    "Worker process pools started by parallel executors.",
                ).inc()
            return self._pool

    def _discard(self, pool) -> None:
        """Forget ``pool``; it exits once the shards already queued on it end."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False)

    def close(self) -> None:
        """Shut the pool down: cancel queued shards and join the workers."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_shards(
        self, shards: Sequence[Sequence[Task]], replication: Callable
    ) -> Iterator[ShardResults]:
        """Run shards on the shared pool, yielding each as it completes.

        Completion order is arbitrary; the driver reassembles results by
        task ordinal, so ordering here is irrelevant to correctness.
        """
        if not shards:
            return
        self._check_resolvable(replication)
        # The caller's span context rides with each shard, so worker-side
        # events join this call's trace whichever traces the pool served.
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
        pool = self._started_pool()
        pending = set()
        submitting = True
        try:
            submitted = time.perf_counter()
            for shard in shards:
                pending.add(
                    pool.submit(_execute_shard_timed, list(shard), trace_context)
                )
                in_flight.inc(backend="parallel")
            submitting = False
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                # Done futures leave the gauge now, before a failed one raises.
                in_flight.dec(len(done), backend="parallel")
                for future in done:
                    results, timing = future.result()
                    completed.inc(backend="parallel")
                    elapsed = time.perf_counter() - submitted
                    dispatch.observe(
                        max(0.0, elapsed - timing["wall_s"]), backend="parallel"
                    )
                    self._local.timing = timing
                    yield results
        except BaseException as error:
            # Abort path (failed submit, task error, broken pool,
            # KeyboardInterrupt, abandoned generator): cancel this call's
            # not-yet-started shards and return without waiting for its
            # running ones, which would hang a Ctrl-C for as long as the
            # slowest of them.  Other callers' shards are left alone; only a
            # pool that broke or refused a submit is discarded.
            in_flight.dec(len(pending), backend="parallel")
            for future in pending:
                future.cancel()
            if submitting or isinstance(error, BrokenExecutor):
                self._discard(pool)
            raise
