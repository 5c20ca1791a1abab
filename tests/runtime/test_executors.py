"""Tests for the serial and multi-process executors and the plan driver."""

import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import (
    ExperimentConfig,
    ParameterGrid,
    run_sweep,
    sweep_configs,
)
from repro.experiments.dynamics_sweep import dynamics_point_replication
from repro.obs.metrics import get_registry
from repro.obs.trace import MemorySink, Tracer
from repro.runtime import (
    ExecutionOptions,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    ShardPlan,
    execute_task,
    run_plan,
)
from repro.service import execute_request, request_from_dict

BASE = {"qualities": (0.8, 0.5), "T": 8}
GRID = ParameterGrid({"N": [40, 80]})


def small_plan(replications=3, seed=5):
    configs = sweep_configs(
        "exec", GRID, replications=replications, seed=seed, base_parameters=BASE
    )
    return ShardPlan.from_configs(configs, dynamics_point_replication)


class TestSerialExecutor:
    def test_matches_the_legacy_in_process_sweep(self):
        plan = small_plan()
        runtime_rows = run_plan(
            plan, dynamics_point_replication, executor=SerialExecutor()
        )
        legacy_results, _ = run_sweep(
            "exec",
            GRID,
            dynamics_point_replication,
            replications=3,
            seed=5,
            base_parameters=BASE,
        )
        assert runtime_rows == [result.metrics for result in legacy_results]

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            SerialExecutor(num_shards=0)


class TestParallelExecutor:
    def test_bit_identical_to_serial(self):
        plan = small_plan()
        serial = run_plan(plan, dynamics_point_replication)
        parallel = run_plan(
            plan,
            dynamics_point_replication,
            executor=ParallelExecutor(2, shards_per_worker=2),
        )
        assert parallel == serial

    def test_closure_replication_rejected(self):
        def closure(seed, parameters):
            return {"metric": 1.0}

        plan_configs = sweep_configs(
            "closure", GRID, replications=1, seed=0, base_parameters=BASE
        )
        plan = ShardPlan.from_configs(plan_configs, closure)
        with pytest.raises(ValueError, match="SerialExecutor"):
            run_plan(plan, closure, executor=ParallelExecutor(2))

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)
        with pytest.raises(ValueError):
            ParallelExecutor(2, shards_per_worker=0)

    def test_a_closed_executor_starts_no_new_pool(self):
        executor = ParallelExecutor(2)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            run_plan(small_plan(), dynamics_point_replication, executor=executor)

    def test_default_shard_count_scales_with_workers(self):
        executor = ParallelExecutor(3, shards_per_worker=4)
        assert executor.num_shards == 12


class TestRunPlanWithStore:
    def test_warm_store_serves_everything_without_recompute(self):
        plan = small_plan()
        calls = []

        def counting(seed, parameters):
            calls.append(seed)
            return dynamics_point_replication(seed, parameters)

        with ResultStore() as store:
            cold = run_plan(plan, counting, store=store)
            cold_calls = len(calls)
            assert cold_calls == len(plan)
            warm = run_plan(plan, counting, store=store)
            assert len(calls) == cold_calls  # zero recomputation
            assert store.hits == len(plan)
            assert warm == cold

    def test_partial_store_only_computes_the_misses(self):
        plan = small_plan()
        with ResultStore() as store:
            half = list(plan.tasks)[: len(plan) // 2]
            for task in half:
                store.put(task, execute_task(task, dynamics_point_replication))
            full = run_plan(plan, dynamics_point_replication, store=store)
            assert store.hits == len(half)
            assert full == run_plan(plan, dynamics_point_replication)

    def test_growing_replications_reuses_the_prefix(self):
        # seeds_for_replications has the prefix property, so a store warmed
        # at R=2 serves the first two replicates of an R=4 re-run.
        with ResultStore() as store:
            run_plan(small_plan(replications=2), dynamics_point_replication, store=store)
            store.hits = store.misses = 0
            run_plan(small_plan(replications=4), dynamics_point_replication, store=store)
            assert store.hits == 2 * len(GRID)
            assert store.misses == 2 * len(GRID)


def sleepy_replication(seed, parameters):
    """Module-level (worker-resolvable) replication that naps per parameters."""
    time.sleep(float(parameters.get("sleep", 0.0)))
    return {"metric": float(seed)}


class TestAbortDoesNotJoinRunningShards:
    """Regression: aborting mid-run must not block on a still-running shard.

    The old abort path cancelled only *pending* futures and then closed the
    pool via the context manager, whose exit joins the workers — so a
    Ctrl-C during a big sweep hung until the in-flight shards finished.
    """

    SLOW = 3.0

    def _shards(self):
        configs = [
            ExperimentConfig(
                name=f"abort[{index}]",
                parameters={"sleep": sleep},
                replications=1,
                seed=index,
            )
            for index, sleep in enumerate([0.0, self.SLOW, 0.0])
        ]
        plan = ShardPlan.from_configs(configs, sleepy_replication)
        return plan.shards(len(plan))

    def test_abandoning_the_generator_returns_promptly(self):
        executor = ParallelExecutor(max_workers=1, shards_per_worker=1)
        shard_results = executor.run_shards(self._shards(), sleepy_replication)
        first = next(shard_results)  # fast shard done; slow shard now running
        assert len(first) == 1
        start = time.monotonic()
        shard_results.close()  # GeneratorExit at the yield = the abort path
        elapsed = time.monotonic() - start
        assert elapsed < self.SLOW - 1.0, (
            f"abort took {elapsed:.2f}s — the executor joined the "
            "still-running slow shard instead of abandoning it"
        )

    def test_interrupt_propagates_after_prompt_shutdown(self):
        executor = ParallelExecutor(max_workers=1, shards_per_worker=1)
        shard_results = executor.run_shards(self._shards(), sleepy_replication)
        next(shard_results)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            shard_results.throw(KeyboardInterrupt)
        assert time.monotonic() - start < self.SLOW - 1.0


def failing_replication(seed, parameters):
    """Module-level replication that raises in the worker when told to."""
    if parameters.get("fail"):
        raise ValueError(f"replication failed for seed {seed}")
    return {"metric": float(seed)}


def _in_flight() -> float:
    return get_registry().gauge("repro_shards_in_flight").value(backend="parallel")


def _assert_no_child_survives(before, timeout=15.0):
    deadline = time.monotonic() + timeout
    while set(multiprocessing.active_children()) - before:
        assert time.monotonic() < deadline, "a pool worker outlived the failed run"
        time.sleep(0.05)


class TestAbortPathCleansUp:
    """A failed run raises its own error, stops its workers and settles the gauge."""

    def _shards(self, fail_index=None):
        configs = [
            ExperimentConfig(
                name=f"fail[{index}]",
                parameters={"fail": index == fail_index},
                replications=1,
                seed=index,
            )
            for index in range(4)
        ]
        plan = ShardPlan.from_configs(configs, failing_replication)
        return plan.shards(len(plan))

    def test_failed_submit_propagates_and_stops_the_pool(self, monkeypatch):
        submit = ProcessPoolExecutor.submit
        calls = []

        def submit_once(pool, *args, **kwargs):
            calls.append(pool)
            if len(calls) == 2:
                raise RuntimeError("cannot schedule new futures after shutdown")
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_once)
        before = set(multiprocessing.active_children())
        gauge = _in_flight()
        executor = ParallelExecutor(2, shards_per_worker=2)
        with pytest.raises(RuntimeError, match="cannot schedule new futures"):
            list(executor.run_shards(self._shards(), failing_replication))
        assert len(calls) == 2
        _assert_no_child_survives(before)
        assert _in_flight() == gauge

    def test_worker_error_propagates_and_settles_the_gauge(self):
        before = set(multiprocessing.active_children())
        gauge = _in_flight()
        executor = ParallelExecutor(2, shards_per_worker=2)
        with pytest.raises(ValueError, match="replication failed for seed"):
            list(executor.run_shards(self._shards(fail_index=1), failing_replication))
        assert _in_flight() == gauge
        # A task that raises leaves the shared pool healthy for the next run.
        rows = list(executor.run_shards(self._shards(), failing_replication))
        assert sorted(task.ordinal for shard in rows for task, _ in shard) == [
            0, 1, 2, 3
        ]
        executor.close()
        _assert_no_child_survives(before)
        assert _in_flight() == gauge


def killing_replication(seed, parameters):
    """Module-level replication that kills the worker process running it."""
    os._exit(1)


def _pools_started() -> float:
    return get_registry().counter("repro_worker_pools_started_total").value()


class TestOneExecutorSharedByThreads:
    """Threads share one executor; each call sees only its own shards."""

    ROUNDS = 3
    REQUESTS = {
        "loop": {"kind": "sweep", "options": [0.8, 0.5], "populations": [40, 60],
                 "horizon": 8, "replications": 3, "seed": 2, "engine": "loop"},
        "grid": {"kind": "sweep", "options": [0.8, 0.5],
                 "populations": [40, 60, 80], "horizon": 8, "replications": 3,
                 "seed": 3},
        "batched": {"kind": "network", "options": [0.8, 0.5], "topology": "ring",
                    "size": 60, "horizon": 8, "replications": 3, "seed": 4},
    }
    # On ParallelExecutor(2): 6 loop tasks in 6 of the 8 chunks, 3 grid points
    # in one fused launch per worker, one network point as one grid task.
    SHARDS = {"loop": 6, "grid": 2, "batched": 1}
    TASKS = {"loop": 6, "grid": 3, "batched": 1}

    def _shard_spans(self, sink):
        [trace_id] = list(sink._traces)
        ends = [r for r in sink.records(trace_id) if r["event"] == "span_end"]
        [plan_span] = [r["span"] for r in ends if r["name"] == "run_plan"]
        return plan_span, [r for r in ends if r["name"] == "shard"]

    def test_threads_get_their_own_rows_spans_and_errors(self):
        serial = {
            name: execute_request(request_from_dict(payload)).rows
            for name, payload in self.REQUESTS.items()
        }
        failing = ShardPlan.from_configs(
            sweep_configs("fail", ParameterGrid({"fail": [False, True]}), seed=1),
            failing_replication,
        )
        outcomes = {name: [] for name in [*self.REQUESTS, "failing"]}
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ParallelExecutor(2) as executor:

                def drive(name):
                    try:
                        for _ in range(self.ROUNDS):
                            sink = MemorySink()
                            options = ExecutionOptions(
                                executor=executor, tracer=Tracer(sink)
                            )
                            request = request_from_dict(self.REQUESTS[name])
                            rows = execute_request(request, options=options).rows
                            outcomes[name].append((rows, self._shard_spans(sink)))
                    except BaseException as error:  # noqa: BLE001 - asserted below
                        errors.append((name, error))

                def fail():
                    for _ in range(self.ROUNDS):
                        with pytest.raises(ValueError) as excinfo:
                            run_plan(failing, failing_replication, executor=executor)
                        outcomes["failing"].append(excinfo.value)

                threads = [
                    threading.Thread(target=drive, args=(name,), daemon=True)
                    for name in self.REQUESTS
                ]
                threads.append(threading.Thread(target=fail, daemon=True))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for name in self.REQUESTS:
            assert len(outcomes[name]) == self.ROUNDS
            for rows, (plan_span, shards) in outcomes[name]:
                assert rows == serial[name]
                assert len(shards) == self.SHARDS[name]
                assert {shard["parent"] for shard in shards} == {plan_span}
                tasks = sum(shard["attributes"]["tasks"] for shard in shards)
                assert tasks == self.TASKS[name]
        assert len(outcomes["failing"]) == self.ROUNDS
        assert all("seed" in str(error) for error in outcomes["failing"])


class TestKilledWorker:
    """A worker that dies raises a typed error and never poisons the pool."""

    def test_broken_pool_raises_then_the_next_run_starts_fresh(self):
        before = set(multiprocessing.active_children())
        pools = _pools_started()
        configs = sweep_configs(
            "kill", GRID, replications=2, seed=0, base_parameters=BASE
        )
        doomed = ShardPlan.from_configs(configs, killing_replication)
        executor = ParallelExecutor(2, shards_per_worker=1)
        outcome = {}

        def run():
            try:
                run_plan(doomed, killing_replication, executor=executor)
            except BaseException as error:  # noqa: BLE001 - asserted below
                outcome["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "a killed worker hung the run"
        assert isinstance(outcome.get("error"), BrokenProcessPool)
        plan = small_plan()
        assert run_plan(
            plan, dynamics_point_replication, executor=executor
        ) == run_plan(plan, dynamics_point_replication, executor=SerialExecutor())
        assert _pools_started() == pools + 2
        executor.close()
        _assert_no_child_survives(before)
