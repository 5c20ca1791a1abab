"""Replicated experiment execution.

A replication function takes one of two forms, and the runtime
(:func:`repro.runtime.run_plan`, the one execution path) calls each its own
way:

* a **per-seed** function is called once per seed, each call simulating one
  replicate;
* a function decorated with :func:`grid_batched_replication` receives the
  seed lists and parameters of one or more grid points at once and returns
  one metrics dict per (point, seed).  Such functions drive the batched
  engines (e.g. :class:`repro.core.batched.BatchedDynamics`), which advance
  all replicates as one ``(R, m)`` count matrix per step and are more than
  an order of magnitude faster at large ``N`` (see
  ``benchmarks/test_bench_batched.py``).

Every form derives the seed list identically from ``config.seed``, so
results stay reproducible from the config alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.analysis.statistics import ReplicationSummary, summarize_replications
from repro.experiments.config import ExperimentConfig

ReplicationFunction = Callable[[int, Dict[str, Any]], Dict[str, float]]
"""A replication takes (seed, parameters) and returns a dict of scalar metrics."""

GridReplicationFunction = Callable[
    [Sequence[Sequence[int]], Sequence[Dict[str, Any]]],
    Sequence[Sequence[Dict[str, float]]],
]
"""A grid replication takes (per-point seed lists, per-point parameters) and
returns, for each grid point, one metrics dict per seed."""


def grid_batched_replication(
    function: GridReplicationFunction,
) -> GridReplicationFunction:
    """Mark ``function`` as a batched replication over grid points.

    The runtime calls it with the seed lists and parameter dicts of all the
    grid points in one shard (every point, for a plain
    :func:`~repro.experiments.sweep.run_sweep`; the one point, for
    :func:`run_replications`), and the function returns one metrics dict per
    (point, seed) pair.  It may run each point as its own ``(R, N)`` launch
    or flatten the ``G x R`` rows into a single
    :class:`~repro.core.batched.BatchedDynamics` launch with per-row
    parameters.

    Which points share a call depends on how the runtime shards the sweep,
    so a point's rows must depend only on its own seeds and parameters:
    draw point ``g``'s rows from a generator seeded by ``seed_blocks[g]``
    alone, e.g. with :class:`~repro.utils.rng.RowBlockGenerator`.

    Usage::

        @grid_batched_replication
        def replication(seed_blocks, points):
            rng = RowBlockGenerator(seed_blocks)
            ...  # one (G*R, m) BatchedDynamics launch
            return [[{"regret": ...} for seed in block] for block in seed_blocks]
    """
    function.grid_replications = True  # type: ignore[attr-defined]
    return function


@dataclass
class ReplicatedResult:
    """Metrics from all replications of one experiment configuration."""

    config: ExperimentConfig
    seeds: List[int]
    metrics: List[Dict[str, float]] = field(default_factory=list)

    def metric_values(self, name: str) -> np.ndarray:
        """All replications' values of metric ``name``."""
        missing = [index for index, row in enumerate(self.metrics) if name not in row]
        if missing:
            raise KeyError(
                f"metric '{name}' missing from replications {missing} of "
                f"{self.config.name}"
            )
        return np.array([row[name] for row in self.metrics], dtype=float)

    def metric_names(self) -> List[str]:
        """Names of all metrics present in every replication."""
        if not self.metrics:
            return []
        names = set(self.metrics[0])
        for row in self.metrics[1:]:
            names &= set(row)
        return sorted(names)

    def summarize(self, name: str) -> ReplicationSummary:
        """Replication summary (mean, CI, ...) of metric ``name``."""
        return summarize_replications(self.metric_values(name))

    def summary_row(self) -> Dict[str, Any]:
        """One flat dict: config parameters plus the mean of every metric."""
        row: Dict[str, Any] = dict(self.config.parameters)
        for name in self.metric_names():
            row[name] = float(self.metric_values(name).mean())
        return row


def _validated_metrics(metrics: Any) -> Dict[str, float]:
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError(
            "replication functions must return a non-empty dict of scalar metrics"
        )
    return {key: float(value) for key, value in metrics.items()}


def _run_planned(
    configs: Sequence[ExperimentConfig], replication: Callable, options: Any
) -> List[ReplicatedResult]:
    """The results of ``configs``, run by :func:`repro.runtime.run_plan`.

    Each result records the seed list its plan derived for the point.
    """
    # Imported lazily: repro.runtime depends on this module.
    from repro.runtime import ExecutionOptions, ShardPlan, run_plan

    options = options if options is not None else ExecutionOptions()
    plan = ShardPlan.from_configs(configs, replication)
    rows = run_plan(
        plan,
        replication,
        executor=options.executor,
        store=options.store,
        tracer=options.tracer,
    )
    return [
        ReplicatedResult(config=config, seeds=seeds, metrics=metrics)
        for config, seeds, metrics in zip(configs, plan.point_seeds(), rows)
    ]


def run_replications(
    config: ExperimentConfig,
    replication: ReplicationFunction,
    *,
    options: Any = None,
) -> ReplicatedResult:
    """Run ``config.replications`` independent replications of an experiment.

    Each replication receives its own integer seed derived from
    ``config.seed``, so the whole experiment is reproducible from the config
    alone and individual replications can be re-run in isolation.  A
    function marked with :func:`grid_batched_replication` is called once
    with the one point's full seed list instead of once per seed; the
    derived seeds, and therefore the result's provenance record, are
    identical in both modes.

    Execution goes through the runtime (:func:`repro.runtime.run_plan`).
    ``options`` — an :class:`~repro.runtime.options.ExecutionOptions` —
    chooses its executor (e.g. a
    :class:`~repro.runtime.executors.ParallelExecutor`, or any
    :class:`~repro.runtime.backend.Backend`; per-seed functions parallelise
    seed by seed, grid functions run the point as one task), a
    :class:`~repro.runtime.store.ResultStore` serving cache hits and
    recording results for resume, and a tracer.  None of these changes a
    result.
    """
    return _run_planned([config], replication, options)[0]
