"""Deterministic work decomposition for sharded sweep execution.

A :class:`ShardPlan` turns a ``ParameterGrid x replications`` workload (or a
single replicated :class:`~repro.experiments.config.ExperimentConfig`) into an
ordered tuple of :class:`Task` objects — the smallest units of work the
runtime schedules, caches and resumes.  The decomposition is **deterministic**
and **execution-invariant**:

* every grid point derives its seed list as
  ``seeds_for_replications(config.seed, config.replications)`` — the
  integer-seed materialisation of :func:`repro.utils.rng.spawn_rngs`'s
  independent streams — which is also the provenance record
  :class:`~repro.experiments.runner.ReplicatedResult` keeps; and
* every task is a pure function of its own ``(function, parameters, seeds)``
  triple — no task observes which shard it landed on, how many workers exist,
  or what ran before it — so **any** sharding (1 worker or 32, one shard or a
  hundred) yields bit-identical per-(point, seed) metrics.

Task granularity follows the replication function's execution mode:

``loop``
    Plain per-seed functions split into one task per ``(point, seed)`` pair —
    maximal parallelism and per-seed cache/resume granularity.
``grid``
    ``@grid_batched_replication`` functions get one task per point, holding
    the point's whole seed list, and :func:`execute_shard` hands all of a
    shard's grid tasks to the function in one call.  The dynamics grid fuses
    them into one engine launch.  Each point draws from its own generator,
    so a point's rows are the same whichever shard it lands in and whichever
    points share it.  A function marked ``per_seed_rows`` (the network and
    protocol engines, whose every row draws from its own seed's generator)
    gets one task per ``(point, seed)`` instead, still in ``grid`` mode:
    a shard passes each run of consecutive tasks of one point to the
    function as one seed block, so the seeds a shard holds of a point run
    as one ``(R, N)`` launch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import _validated_metrics
from repro.utils.rng import seeds_for_replications

MODE_LOOP = "loop"
MODE_GRID = "grid"


def function_reference(function: Callable) -> str:
    """The ``module:qualname`` string a worker process resolves back to ``function``."""
    return f"{function.__module__}:{function.__qualname__}"


def replication_mode(function: Callable) -> str:
    """Execution mode of a replication function (``loop`` or ``grid``)."""
    return MODE_GRID if getattr(function, "grid_replications", False) else MODE_LOOP


class Task(NamedTuple):
    """One schedulable unit of work: some seeds of one grid point.

    Tasks are plain picklable data — the replication function travels as its
    importable ``module:qualname`` reference, and workers rebuild engines
    from ``parameters`` on their side.  ``ordinal`` is the task's position in
    the plan (the merge order); ``replicate_offset`` is the index of
    ``seeds[0]`` within the point's full seed list.  A named tuple, because a
    warm replay builds one per ``(point, seed)`` and a tuple builds fastest.
    """

    ordinal: int
    point_index: int
    name: str
    function_ref: str
    mode: str
    parameters: Dict[str, Any]
    seeds: Tuple[int, ...]
    replicate_offset: int

    @property
    def num_replicates(self) -> int:
        """Number of (point, seed) results this task produces."""
        return len(self.seeds)


@dataclass(frozen=True)
class ShardPlan:
    """An ordered, deterministic decomposition of a replicated workload.

    ``configs`` are the per-point experiment configs in sweep order;
    ``tasks`` cover every ``(point, seed)`` pair exactly once, ordered by
    ``(point_index, replicate_offset)``.
    """

    configs: Tuple[ExperimentConfig, ...]
    tasks: Tuple[Task, ...]

    @classmethod
    def from_configs(
        cls,
        configs: Sequence[ExperimentConfig],
        replication: Callable,
    ) -> "ShardPlan":
        """Decompose ``configs`` into tasks for ``replication``.

        Each config's seed list is derived here, once; :meth:`point_seeds`
        hands it back as the provenance record
        :class:`~repro.experiments.runner.ReplicatedResult` keeps.
        """
        if not configs:
            raise ValueError("a shard plan needs at least one config")
        mode = replication_mode(replication)
        per_seed = mode == MODE_LOOP or getattr(replication, "per_seed_rows", False)
        reference = function_reference(replication)
        tasks: List[Task] = []
        for point_index, config in enumerate(configs):
            # One copy per point, shared by its tasks: consumers copy before
            # use, and the shared object lets task_keys encode it once.
            parameters = dict(config.parameters)
            seeds = seeds_for_replications(config.seed, config.replications)
            if per_seed:
                blocks = [(offset, (seed,)) for offset, seed in enumerate(seeds)]
            else:
                blocks = [(0, tuple(seeds))]
            for offset, block in blocks:
                # Fields in order, not by keyword: half the cost per task.
                tasks.append(
                    Task(
                        len(tasks),
                        point_index,
                        config.name,
                        reference,
                        mode,
                        parameters,
                        block,
                        offset,
                    )
                )
        return cls(configs=tuple(configs), tasks=tuple(tasks))

    @property
    def num_points(self) -> int:
        """Number of grid points (configs) in the plan."""
        return len(self.configs)

    def __len__(self) -> int:
        return len(self.tasks)

    def point_seeds(self) -> List[List[int]]:
        """Each point's full seed list, gathered from its tasks in replicate order."""
        seeds: List[List[int]] = [[] for _ in self.configs]
        for task in self.tasks:
            seeds[task.point_index].extend(task.seeds)
        return seeds

    def shards(self, num_shards: int) -> List[List[Task]]:
        """Split the plan's tasks into at most ``num_shards`` contiguous chunks."""
        return partition_tasks(list(self.tasks), num_shards)


def partition_tasks(tasks: Sequence[Task], num_shards: int) -> List[List[Task]]:
    """Contiguous, balanced partition of ``tasks`` into at most ``num_shards`` chunks.

    Deterministic: chunk boundaries depend only on ``(len(tasks),
    num_shards)``.  Empty input yields no shards; chunk sizes differ by at
    most one and preserve task order, so an ordered merge is a plain
    concatenation.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    total = len(tasks)
    if total == 0:
        return []
    count = min(num_shards, total)
    base, extra = divmod(total, count)
    shards: List[List[Task]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        shards.append(list(tasks[start : start + size]))
        start += size
    return shards


def _checked_rows(tasks: Sequence[Task], rows: Sequence[Any]) -> List[Dict[str, float]]:
    """Validated ``rows`` of ``tasks``, one per seed, in task order."""
    seeds = sum(task.num_replicates for task in tasks)
    if len(rows) != seeds:
        raise ValueError(
            f"replication returned {len(rows)} metric rows for "
            f"{seeds} seeds of {tasks[0].name}"
        )
    return [_validated_metrics(row) for row in rows]


def _grid_rows(
    tasks: Sequence[Task], function: Callable
) -> List[List[Dict[str, float]]]:
    """Rows of grid tasks, all passed to ``function`` in one call.

    Consecutive tasks of one point (the per-seed tasks of a
    ``per_seed_rows`` function) reach it as one seed block.
    """
    groups: List[List[Task]] = []
    for task in tasks:
        if groups and groups[-1][-1].point_index == task.point_index:
            groups[-1].append(task)
        else:
            groups.append([task])
    if not groups:
        return []
    blocks = list(
        function(
            [[seed for task in group for seed in task.seeds] for group in groups],
            [dict(group[0].parameters) for group in groups],
        )
    )
    if len(blocks) != len(groups):
        raise ValueError(
            f"grid replication returned {len(blocks)} metric blocks for "
            f"{len(groups)} grid points"
        )
    rows = []
    for group, block in zip(groups, blocks):
        block = _checked_rows(group, list(block))
        for task in group:
            rows.append(block[: task.num_replicates])
            block = block[task.num_replicates :]
    return rows


def execute_task(task: Task, function: Callable) -> List[Dict[str, float]]:
    """Run one task, returning one validated metrics dict per seed."""
    if task.mode == MODE_LOOP:
        return _checked_rows(
            [task], [function(seed, dict(task.parameters)) for seed in task.seeds]
        )
    if task.mode == MODE_GRID:
        return _grid_rows([task], function)[0]
    raise ValueError(f"unknown task mode {task.mode!r}")


def execute_shard(
    tasks: Sequence[Task], function: Callable
) -> List[Tuple[Task, List[Dict[str, float]]]]:
    """Run one shard, pairing each task with its validated metric rows.

    This is the single compute path of every executor and broker.  Grid
    tasks go to ``function`` in one call, so a shard of grid points runs as
    one fused launch; loop tasks run one by one through
    :func:`execute_task`.  Every task's rows depend only on the task, so
    results are the same on any executor, at any shard size.
    """
    grid = [task for task in tasks if task.mode == MODE_GRID]
    fused = iter(_grid_rows(grid, function))
    return [
        (task, next(fused) if task.mode == MODE_GRID else execute_task(task, function))
        for task in tasks
    ]
