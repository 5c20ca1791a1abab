"""Tests for the deterministic work decomposition (ShardPlan / Task)."""

import pytest

from repro.experiments import ExperimentConfig, ParameterGrid, sweep_configs
from repro.experiments.dynamics_sweep import (
    dynamics_grid_replication,
    dynamics_point_replication,
)
from repro.experiments.network_sweep import network_batched_replication
from repro.runtime import (
    ShardPlan,
    execute_shard,
    execute_task,
    function_reference,
    partition_tasks,
    replication_mode,
    resolve_replication,
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

    def test_batched_function(self):
        assert replication_mode(network_batched_replication) == "batched"

    def test_grid_function(self):
        assert replication_mode(dynamics_grid_replication) == "grid"


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

    def test_batched_mode_keeps_points_whole(self):
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

    def test_from_config_single_point(self):
        config = ExperimentConfig(
            name="single", parameters=dict(BASE, N=50), replications=3, seed=0
        )
        plan = ShardPlan.from_config(config, dynamics_point_replication)
        assert plan.num_points == 1
        assert len(plan) == 3


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
        def bad_batched(seeds, parameters):
            return [{"metric": 1.0}]

        bad_batched.batched_replications = True
        config = ExperimentConfig(
            name="bad", parameters=dict(BASE, N=50), replications=3, seed=0
        )
        plan = ShardPlan.from_config(config, bad_batched)
        with pytest.raises(ValueError, match="metric rows"):
            execute_task(plan.tasks[0], bad_batched)


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
