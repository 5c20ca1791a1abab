"""Parallel execution runtime: sharded sweeps, content-addressed caching, resume.

This package turns the experiment harness's sweep/replication workloads into
shardable, cacheable, resumable jobs:

* :mod:`repro.runtime.shard` — :class:`ShardPlan`/:class:`Task`: the
  deterministic, execution-invariant decomposition of a
  ``ParameterGrid x replications`` workload, and :func:`execute_shard`,
  the one compute path every executor and broker runs;
* :mod:`repro.runtime.executors` — :class:`SerialExecutor` (default,
  in-process) and :class:`ParallelExecutor` (``ProcessPoolExecutor``-backed,
  chunked dispatch, worker-side engine construction) behind one interface;
* :mod:`repro.runtime.store` — :class:`ResultStore`: a content-addressed
  cache keyed on ``(function, parameters, seeds, code version)``, one
  sqlite table of key → metrics JSON;
* :mod:`repro.runtime.options` — :class:`ExecutionOptions`: executor,
  store and tracer in one value;
* :mod:`repro.runtime.driver` — :func:`run_plan`: cache lookup, shard
  dispatch, per-shard flush and ordered merge.

Every sweep and replicated run executes through :func:`run_plan`: plain
``run_sweep``/``run_replications`` calls on a :class:`SerialExecutor`, and
``options=ExecutionOptions(executor=..., store=..., tracer=...)`` or the
``repro sweep/network/protocol --workers K --store PATH --trace-out PATH``
CLI flags only choose where the work runs, what is cached and what is
traced.  See the README's "Scaling out" section for the
executor/caching/resume guide.
"""

from repro.runtime.backend import Backend, check_resolvable
from repro.runtime.driver import run_plan
from repro.runtime.executors import (
    ParallelExecutor,
    SerialExecutor,
    resolve_replication,
)
from repro.runtime.options import ExecutionOptions
from repro.runtime.shard import (
    ShardPlan,
    Task,
    execute_shard,
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
    "execute_shard",
    "execute_task",
    "function_reference",
    "partition_tasks",
    "replication_mode",
    "resolve_replication",
    "run_plan",
    "task_key",
]
