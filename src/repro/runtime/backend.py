"""The pluggable execution-backend seam of the parallel runtime.

Everything that runs shards — the in-process :class:`SerialExecutor`, the
multi-process :class:`ParallelExecutor` and the socket-based
:class:`~repro.campaign.broker.BrokerBackend` — implements one structural
:class:`Backend` protocol, extracted here from the concrete classes in
:mod:`repro.runtime.executors` so new backends can plug into
:func:`~repro.runtime.driver.run_plan` (and therefore into every sweep,
service job and campaign node) without touching the driver:

``num_shards``
    The dispatch granularity the backend wants: the driver chunks a plan's
    pending tasks into at most this many shards.  An executor that also
    reports ``concurrency`` (how many shards it runs at once) gets a grid
    plan as that many shards instead, one fused launch each; the broker
    reports none and chunks every plan by ``num_shards``, four per broker
    (counting at least ``min_brokers``), as a process pool cuts four per
    worker.  Granularity never changes results — tasks are
    execution-invariant — only flush/recovery chunk size and launch count.
``run_shards(shards, replication)``
    A generator yielding one completed shard at a time as ``(task, metrics)``
    pairs, in arbitrary completion order.  The driver flushes each yielded
    shard to the result store immediately, which is what bounds the loss of
    a crash (of a worker process *or* of a remote broker) to in-flight
    shards.

:func:`check_resolvable` is the shared pre-flight check every distributing
backend runs before shipping work: a replication function travels as its
``module:qualname`` reference, so it must be importable at module level and
resolve back to the very function being run.
"""

from __future__ import annotations

from typing import Callable, Iterator, Protocol, Sequence, runtime_checkable

from repro.runtime.executors import ShardResults, resolve_replication
from repro.runtime.shard import Task, function_reference


@runtime_checkable
class Backend(Protocol):
    """Structural protocol of a shard-execution backend."""

    @property
    def num_shards(self) -> int:
        """Preferred number of dispatch chunks for a plan's pending tasks."""
        ...  # pragma: no cover - protocol stub

    def run_shards(
        self, shards: Sequence[Sequence[Task]], replication: Callable
    ) -> Iterator[ShardResults]:
        """Run shards, yielding each one's ``(task, metrics)`` pairs as it completes."""
        ...  # pragma: no cover - protocol stub


def check_resolvable(replication: Callable, backend_name: str) -> str:
    """Verify ``replication`` round-trips through its importable reference.

    Returns the ``module:qualname`` reference on success; raises
    :class:`ValueError` with a pointer at :class:`SerialExecutor` when the
    function is a closure or otherwise not importable — the error a user
    should see *before* any worker process or remote broker chokes on it.
    """
    reference = function_reference(replication)
    try:
        resolved = resolve_replication(reference)
    except (ImportError, AttributeError, ValueError) as error:
        raise ValueError(
            f"{backend_name} cannot ship {reference!r} to workers; "
            "replication functions must be importable at module level "
            "(use SerialExecutor for closures)"
        ) from error
    if resolved is not replication:
        raise ValueError(
            f"{reference!r} does not resolve back to the replication "
            f"function being run; {backend_name} needs module-level "
            "functions (use SerialExecutor for closures)"
        )
    return reference
