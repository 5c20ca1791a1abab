"""Tests for the deterministic work decomposition (ShardPlan / Task)."""

import json
import pickle

import pytest

from repro.campaign.broker import task_from_wire, task_to_wire

from repro.experiments import ExperimentConfig, ParameterGrid, sweep_configs
from repro.experiments.dynamics_sweep import (
    dynamics_grid_replication,
    dynamics_point_replication,
)
from repro.experiments.network_sweep import network_batched_replication
from repro.experiments.protocol_sweep import protocol_batched_replication
from repro.runtime import (
    ShardPlan,
    Task,
    execute_shard,
    execute_task,
    function_reference,
    partition_tasks,
    replication_mode,
    resolve_replication,
    task_keys,
)
from repro.utils.rng import seeds_for_replications

BASE = {"qualities": (0.8, 0.5), "T": 10}


def small_configs(points=3, replications=4, seed=7):
    grid = ParameterGrid({"N": [50 * (index + 1) for index in range(points)]})
    return sweep_configs(
        "unit", grid, replications=replications, seed=seed, base_parameters=BASE
    )


class TestReplicationMode:
    def test_loop_function(self):
        assert replication_mode(dynamics_point_replication) == "loop"

    @pytest.mark.parametrize(
        "function",
        [
            dynamics_grid_replication,
            network_batched_replication,
            protocol_batched_replication,
        ],
        ids=["dynamics", "network", "protocol"],
    )
    def test_grid_function(self, function):
        assert replication_mode(function) == "grid"


class TestFunctionReference:
    def test_round_trip_resolution(self):
        reference = function_reference(dynamics_point_replication)
        assert resolve_replication(reference) is dynamics_point_replication

    def test_malformed_reference_rejected(self):
        with pytest.raises(ValueError):
            resolve_replication("no-colon-here")


class TestShardPlan:
    def test_loop_mode_splits_per_seed(self):
        configs = small_configs(points=3, replications=4)
        plan = ShardPlan.from_configs(configs, dynamics_point_replication)
        assert plan.num_points == 3
        assert len(plan) == 12
        assert all(task.num_replicates == 1 for task in plan.tasks)

    def test_grid_mode_keeps_points_whole(self):
        configs = small_configs(points=3, replications=4)
        plan = ShardPlan.from_configs(configs, network_batched_replication)
        assert len(plan) == 3
        assert all(task.num_replicates == 4 for task in plan.tasks)

    def test_seed_blocks_match_the_serial_derivation(self):
        configs = small_configs(points=2, replications=5, seed=11)
        plan = ShardPlan.from_configs(configs, dynamics_point_replication)
        for point_index, config in enumerate(configs):
            expected = seeds_for_replications(config.seed, config.replications)
            point_tasks = [
                task for task in plan.tasks if task.point_index == point_index
            ]
            flattened = [seed for task in point_tasks for seed in task.seeds]
            assert flattened == expected
            offsets = [task.replicate_offset for task in point_tasks]
            assert offsets == sorted(offsets)

    def test_ordinals_are_plan_positions(self):
        plan = ShardPlan.from_configs(small_configs(), dynamics_point_replication)
        assert [task.ordinal for task in plan.tasks] == list(range(len(plan)))

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError):
            ShardPlan.from_configs([], dynamics_point_replication)

    def test_single_config_plan(self):
        config = ExperimentConfig(
            name="single", parameters=dict(BASE, N=50), replications=3, seed=0
        )
        plan = ShardPlan.from_configs([config], dynamics_point_replication)
        assert plan.num_points == 1
        assert len(plan) == 3


class TestTask:
    FIELDS = (
        "ordinal",
        "point_index",
        "name",
        "function_ref",
        "mode",
        "parameters",
        "seeds",
        "replicate_offset",
    )

    @pytest.mark.parametrize(
        "replication", [dynamics_point_replication, network_batched_replication]
    )
    def test_plan_tasks_survive_pickling_and_the_broker_wire(self, replication):
        plan = ShardPlan.from_configs(small_configs(points=2), replication)
        for task in plan.tasks:
            fields = [getattr(task, name) for name in self.FIELDS]
            pickled = pickle.loads(pickle.dumps(task))
            wired = task_from_wire(task_to_wire(task))
            for copy in (pickled, wired):
                assert type(copy) is type(task)
                assert [getattr(copy, name) for name in self.FIELDS] == fields
                assert copy == task
                assert copy.num_replicates == task.num_replicates
        # A broker reads the frame as JSON text (tuples arrive as lists) and
        # still derives every task's key.
        framed = [
            task_from_wire(json.loads(json.dumps(task_to_wire(task))))
            for task in plan.tasks
        ]
        assert task_keys(framed) == task_keys(plan.tasks)

    def test_fields_keep_their_order_and_keywords(self):
        task = Task(
            ordinal=3,
            point_index=1,
            name="unit",
            function_ref="module:function",
            mode="loop",
            parameters={"N": 10},
            seeds=(5, 6),
            replicate_offset=2,
        )
        assert Task._fields == self.FIELDS
        positional = Task(3, 1, "unit", "module:function", "loop", {"N": 10}, (5, 6), 2)
        assert task == positional
        assert task.num_replicates == 2
        with pytest.raises(AttributeError):
            task.seeds = (7,)


class TestPartitionTasks:
    def test_contiguous_balanced_cover(self):
        plan = ShardPlan.from_configs(
            small_configs(points=3, replications=4), dynamics_point_replication
        )
        shards = partition_tasks(list(plan.tasks), 5)
        assert len(shards) == 5
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1
        flattened = [task for shard in shards for task in shard]
        assert flattened == list(plan.tasks)

    def test_more_shards_than_tasks_clamps(self):
        plan = ShardPlan.from_configs(
            small_configs(points=1, replications=2), dynamics_point_replication
        )
        shards = plan.shards(16)
        assert len(shards) == 2

    def test_empty_task_list_yields_no_shards(self):
        assert partition_tasks([], 4) == []

    def test_nonpositive_shard_count_rejected(self):
        with pytest.raises(ValueError):
            partition_tasks([], 0)


class TestExecuteTask:
    def test_loop_task_matches_direct_call(self):
        configs = small_configs(points=1, replications=2)
        plan = ShardPlan.from_configs(configs, dynamics_point_replication)
        task = plan.tasks[0]
        direct = dynamics_point_replication(
            task.seeds[0], dict(task.parameters)
        )
        assert execute_task(task, dynamics_point_replication) == [direct]

    def test_grid_task_matches_single_point_grid_call(self):
        configs = small_configs(points=1, replications=3)
        plan = ShardPlan.from_configs(configs, dynamics_grid_replication)
        task = plan.tasks[0]
        direct = dynamics_grid_replication(
            [list(task.seeds)], [dict(task.parameters)]
        )[0]
        assert execute_task(task, dynamics_grid_replication) == list(direct)

    def test_row_count_mismatch_rejected(self):
        def bad_grid(seed_blocks, points):
            return [[{"metric": 1.0}] for _ in points]

        bad_grid.grid_replications = True
        config = ExperimentConfig(
            name="bad", parameters=dict(BASE, N=50), replications=3, seed=0
        )
        plan = ShardPlan.from_configs([config], bad_grid)
        with pytest.raises(ValueError, match="metric rows"):
            execute_task(plan.tasks[0], bad_grid)

    def test_unknown_mode_rejected(self):
        task = ShardPlan.from_configs(
            small_configs(points=1), network_batched_replication
        ).tasks[0]._replace(mode="batched")
        with pytest.raises(ValueError, match="unknown task mode 'batched'"):
            execute_task(task, network_batched_replication)


class TestExecuteShard:
    def test_grid_tasks_share_one_call_with_per_task_rows(self):
        calls = []

        def counting(seed_blocks, points):
            calls.append(len(points))
            return dynamics_grid_replication(seed_blocks, points)

        counting.grid_replications = True
        plan = ShardPlan.from_configs(small_configs(points=3), counting)
        results = execute_shard(plan.tasks, counting)
        assert calls == [3]
        assert [task for task, _ in results] == list(plan.tasks)
        for task, rows in results:
            assert rows == execute_task(task, dynamics_grid_replication)

    def test_loop_tasks_run_one_by_one(self):
        plan = ShardPlan.from_configs(
            small_configs(points=2, replications=2), dynamics_point_replication
        )
        results = execute_shard(plan.tasks, dynamics_point_replication)
        assert [task for task, _ in results] == list(plan.tasks)
        for task, rows in results:
            assert rows == execute_task(task, dynamics_point_replication)

    def test_block_count_mismatch_rejected(self):
        def short(seed_blocks, points):
            return dynamics_grid_replication(seed_blocks, points)[:1]

        short.grid_replications = True
        plan = ShardPlan.from_configs(small_configs(points=2), short)
        with pytest.raises(ValueError, match="1 metric blocks for 2 grid points"):
            execute_shard(plan.tasks, short)
