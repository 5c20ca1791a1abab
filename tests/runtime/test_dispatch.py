"""How the driver cuts a plan into shards for each kind of backend.

A grid plan runs as one fused launch per shard the executor runs at once:
``max_workers`` shards on a :class:`ParallelExecutor`, one on a
:class:`SerialExecutor` (with or without a store).  Loop and batched plans,
and every plan on a backend that reports no ``concurrency`` (the broker,
whose ``num_shards`` is four per broker), keep the executor's
``num_shards`` chunks.  No layout changes a row.
"""

from __future__ import annotations

import threading

import pytest

from repro.campaign import BrokerBackend, run_broker
from repro.experiments import ParameterGrid, sweep_configs
from repro.experiments.dynamics_sweep import (
    dynamics_grid_replication,
    dynamics_point_replication,
)
from repro.runtime import (
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    ShardPlan,
    run_plan,
)

BASE = {"qualities": (0.8, 0.5, 0.35), "T": 6}
# 6 populations x 4 betas: the grid shape of the daemon's sweep jobs.
GRID = ParameterGrid({"N": [60, 80, 100, 120, 160, 200], "beta": [0.55, 0.6, 0.7, 0.8]})


def plan_for(replication, replications=2):
    configs = sweep_configs(
        "dispatch", GRID, replications=replications, seed=17, base_parameters=BASE
    )
    return ShardPlan.from_configs(configs, replication)


def record_shards(executor):
    """Wrap ``executor.run_shards`` to record the size of every shard it gets."""
    sizes = []
    run_shards = executor.run_shards

    def recording(shards, replication):
        sizes.extend(len(shard) for shard in shards)
        return run_shards(shards, replication)

    executor.run_shards = recording
    return sizes


@pytest.fixture(scope="module")
def serial_grid_rows():
    return run_plan(plan_for(dynamics_grid_replication), dynamics_grid_replication)


class TestGridPlans:
    def test_one_shard_per_worker_on_the_process_pool(self, serial_grid_rows):
        executor = ParallelExecutor(2)
        sizes = record_shards(executor)
        rows = run_plan(
            plan_for(dynamics_grid_replication),
            dynamics_grid_replication,
            executor=executor,
        )
        assert sizes == [12, 12]
        assert rows == serial_grid_rows

    def test_one_shard_on_the_serial_executor_with_a_store(self, serial_grid_rows):
        executor = SerialExecutor()
        sizes = record_shards(executor)
        with ResultStore() as store:
            rows = run_plan(
                plan_for(dynamics_grid_replication),
                dynamics_grid_replication,
                executor=executor,
                store=store,
            )
            assert len(store) == len(GRID)
        assert sizes == [24]
        assert rows == serial_grid_rows

    def test_only_the_misses_are_split(self, serial_grid_rows):
        plan = plan_for(dynamics_grid_replication)
        executor = ParallelExecutor(2)
        with ResultStore() as store:
            run_plan(
                ShardPlan(configs=plan.configs[:10], tasks=plan.tasks[:10]),
                dynamics_grid_replication,
                store=store,
            )
            sizes = record_shards(executor)
            rows = run_plan(
                plan, dynamics_grid_replication, executor=executor, store=store
            )
        assert sizes == [7, 7]
        assert rows == serial_grid_rows

    def test_the_broker_keeps_its_num_shards(self, serial_grid_rows):
        # Four shards per broker, as a ParallelExecutor cuts per worker.
        assert not hasattr(BrokerBackend, "concurrency")
        with BrokerBackend(timeout=15.0) as backend:
            sizes = record_shards(backend)
            thread = threading.Thread(
                target=run_broker,
                args=(backend.address,),
                kwargs={"connect_timeout": 10.0},
                daemon=True,
            )
            thread.start()
            rows = run_plan(
                plan_for(dynamics_grid_replication),
                dynamics_grid_replication,
                executor=backend,
            )
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert sizes == [6, 6, 6, 6]
        assert rows == serial_grid_rows


class TestLoopPlans:
    def test_loop_plans_keep_shards_per_worker_chunks(self):
        plan = plan_for(dynamics_point_replication)
        executor = ParallelExecutor(2)
        sizes = record_shards(executor)
        rows = run_plan(plan, dynamics_point_replication, executor=executor)
        assert executor.num_shards == 8
        assert sizes == [6] * 8
        assert rows == run_plan(plan, dynamics_point_replication)

    def test_serial_store_runs_keep_their_flush_points(self):
        plan = plan_for(dynamics_point_replication, replications=1)
        executor = SerialExecutor()
        sizes = record_shards(executor)
        with ResultStore() as store:
            run_plan(plan, dynamics_point_replication, executor=executor, store=store)
        assert sizes == [3] * 8


class TestConcurrency:
    def test_executors_report_how_many_shards_they_run_at_once(self):
        assert SerialExecutor().concurrency == 1
        assert SerialExecutor(num_shards=5).concurrency == 1
        assert ParallelExecutor(3, shards_per_worker=4).concurrency == 3
