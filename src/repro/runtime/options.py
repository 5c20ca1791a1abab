"""One frozen options object for everything that configures *how* a run executes.

:class:`ExecutionOptions` is the one value the CLI, the service daemon and
the campaign scheduler build once and thread through
:func:`~repro.service.requests.execute_request`,
:func:`~repro.experiments.sweep.run_sweep` and
:func:`~repro.experiments.runner.run_replications` into
:func:`~repro.runtime.driver.run_plan`:

``executor``
    An execution backend (anything satisfying
    :class:`repro.runtime.backend.Backend` — serial, process pool, socket
    broker); ``None`` runs in-process on a :class:`SerialExecutor`.
``store``
    A :class:`~repro.runtime.store.ResultStore` serving cache hits and
    persisting completed shards for resume.
``tracer``
    An optional :class:`~repro.obs.trace.Tracer`; every shard/node records a
    span.  Trace ids derive from content addresses.

Every run takes the same path whatever these hold, so no option changes a
result row: only where the work runs, what is cached and what is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

BACKEND_NAMES = ("inproc", "pool", "broker")
"""``repro campaign --backend`` names, here so the CLI loads no backend module."""


@dataclass(frozen=True)
class ExecutionOptions:
    """How a workload executes: executor, store and tracer.

    Frozen and side-effect free: building one never opens a store or starts
    a process pool.
    """

    executor: Any = None
    store: Any = None
    tracer: Any = None
