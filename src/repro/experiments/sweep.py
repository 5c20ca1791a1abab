"""Parameter sweeps: cartesian grids of experiment configurations."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.results import ResultTable
from repro.experiments.runner import (
    ReplicatedResult,
    ReplicationFunction,
    _run_planned,
)


@dataclass(frozen=True)
class ParameterGrid:
    """A cartesian product of named parameter values.

    Parameters
    ----------
    axes:
        Mapping from parameter name to the sequence of values to sweep.
        Iteration order follows the insertion order of the mapping, with the
        last axis varying fastest (like nested for-loops).
    """

    axes: Mapping[str, Sequence[Any]]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a parameter grid needs at least one axis")
        # Materialise every axis exactly once.  Generators and other one-shot
        # iterables would otherwise be consumed here during validation and
        # silently yield nothing when the grid is iterated.
        normalized = {name: tuple(values) for name, values in self.axes.items()}
        for name, values in normalized.items():
            if len(values) == 0:
                raise ValueError(f"axis '{name}' has no values")
        object.__setattr__(self, "axes", normalized)

    def __len__(self) -> int:
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        names = list(self.axes)
        for combination in itertools.product(*(self.axes[name] for name in names)):
            yield dict(zip(names, combination))


def sweep_configs(
    name: str,
    grid: ParameterGrid,
    *,
    replications: int = 5,
    seed: int = 0,
    base_parameters: Mapping[str, Any] | None = None,
) -> List[ExperimentConfig]:
    """The per-point experiment configs of a sweep, in grid order.

    This is the single canonical derivation: point ``i`` is named
    ``f"{name}[{i}]"`` and seeded at ``seed + i``.
    """
    configs: List[ExperimentConfig] = []
    for index, point in enumerate(grid):
        parameters = dict(base_parameters or {})
        parameters.update(point)
        configs.append(
            ExperimentConfig(
                name=f"{name}[{index}]",
                parameters=parameters,
                replications=replications,
                seed=seed + index,
            )
        )
    return configs


def run_sweep(
    name: str,
    grid: ParameterGrid,
    replication: ReplicationFunction,
    *,
    replications: int = 5,
    seed: int = 0,
    base_parameters: Mapping[str, Any] | None = None,
    options: Any = None,
) -> tuple[List[ReplicatedResult], ResultTable]:
    """Run ``replication`` over every point of ``grid``.

    Returns the raw per-point :class:`ReplicatedResult` objects together with
    a flat :class:`ResultTable` whose rows are the grid parameters plus the
    replication-mean of every metric (the form benchmark tables print).

    The sweep executes through the runtime (:func:`repro.runtime.run_plan`),
    which calls ``replication`` the way its marker asks: per seed, once per
    point with the whole seed list
    (:func:`~repro.experiments.runner.batched_replication`), or with several
    points at once (:func:`~repro.experiments.runner.grid_batched_replication`
    — a plain in-process sweep hands it every point, typically one
    ``(G·R, m)`` engine launch).  Every point derives its seed list from
    ``seed`` alone, and every form's rows depend only on a point's own seeds
    and parameters.

    ``options`` — an :class:`~repro.runtime.options.ExecutionOptions` —
    chooses the executor (e.g. a multi-process
    :class:`~repro.runtime.executors.ParallelExecutor` or any other
    :class:`~repro.runtime.backend.Backend`), a
    :class:`~repro.runtime.store.ResultStore` that serves cache hits and
    records completed shards (so interrupted sweeps resume), and a tracer.
    No choice changes a number: any executor, cache state and tracer give
    bit-identical per-(point, seed) metrics.
    """
    configs = sweep_configs(
        name,
        grid,
        replications=replications,
        seed=seed,
        base_parameters=base_parameters,
    )
    results = _run_planned(configs, replication, options)
    table = ResultTable()
    for result in results:
        table.add_row(result.summary_row())
    return results, table
