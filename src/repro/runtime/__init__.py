"""Parallel execution runtime: sharded sweeps, content-addressed caching, resume.

This package turns the experiment harness's sweep/replication workloads into
shardable, cacheable, resumable jobs:

* :mod:`repro.runtime.shard` — :class:`ShardPlan`/:class:`Task`: the
  deterministic, execution-invariant decomposition of a
  ``ParameterGrid x replications`` workload;
* :mod:`repro.runtime.executors` — :class:`SerialExecutor` (default,
  in-process) and :class:`ParallelExecutor` (``ProcessPoolExecutor``-backed,
  chunked dispatch, worker-side engine construction) behind one interface;
* :mod:`repro.runtime.store` — :class:`ResultStore`: a content-addressed
  cache keyed on ``(function, parameters, seeds, code version)``, one
  sqlite table of key → metrics JSON;
* :mod:`repro.runtime.driver` — :func:`run_plan`: cache lookup, shard
  dispatch, per-shard flush and ordered merge.

Entry points: ``run_replications(..., executor=, store=)``,
``run_sweep(..., executor=, store=)`` and the ``repro sweep/network/protocol
--workers K --store PATH`` CLI flags.  See the README's "Scaling out"
section for the executor/caching/resume guide.
"""

from repro.runtime.backend import Backend, check_resolvable
from repro.runtime.driver import run_plan
from repro.runtime.executors import (
    ParallelExecutor,
    SerialExecutor,
    resolve_replication,
)
from repro.runtime.options import ExecutionOptions, resolve_options
from repro.runtime.shard import (
    ShardPlan,
    Task,
    execute_task,
    function_reference,
    partition_tasks,
    replication_mode,
)
from repro.runtime.store import (
    ResultStore,
    StoreCounters,
    StoreError,
    canonical_json,
    canonical_value,
    task_key,
)

__all__ = [
    "Backend",
    "ExecutionOptions",
    "ParallelExecutor",
    "ResultStore",
    "SerialExecutor",
    "StoreCounters",
    "StoreError",
    "ShardPlan",
    "Task",
    "canonical_json",
    "canonical_value",
    "check_resolvable",
    "execute_task",
    "function_reference",
    "partition_tasks",
    "replication_mode",
    "resolve_options",
    "resolve_replication",
    "run_plan",
    "task_key",
]
