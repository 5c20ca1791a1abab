"""Parallel-runtime benchmark: multi-process sharding and cache-hit replay.

A CPU-bound sweep — the per-seed loop engine, which the runtime shards into
one task per ``(point, seed)`` pair — runs three ways through the same
``run_sweep`` entry point:

* ``serial`` — the in-process :class:`SerialExecutor` (the default);
* ``parallel`` — a 4-worker :class:`ParallelExecutor` (skipped, with the
  asserted floor untested, on machines with fewer than 4 CPUs), timed on a
  warm pool: one small throwaway sweep first starts the pool, and its
  seconds are reported as their own ``parallel-4-pool-start-up`` row; and
* ``cache replay`` — the serial executor against a warm
  :class:`ResultStore`, which must serve every task without recompute.

Floors asserted (ISSUE 5): the 4-worker sweep is at least 2x faster than
serial, bit-identical per-(point, seed); warm replay is at least 50x faster
than the cold compute, with zero store misses.  The store-bound replay
benchmark also derives the keys of one replay request's plan in one pass
and floors that at 2x over a task-by-task pass with the same keys.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments import ParameterGrid, ResultTable, run_sweep, sweep_configs
from repro.experiments.dynamics_sweep import dynamics_point_replication
from repro.runtime import (
    ExecutionOptions,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    ShardPlan,
    Task,
)

QUALITIES = (0.8, 0.5, 0.5, 0.5, 0.5)
POPULATION = 20_000
REPLICATES = 4
HORIZON = 400
GRID = ParameterGrid({"beta": (0.55, 0.6, 0.65, 0.7), "mu": (0.02, 0.1)})
BASE_PARAMETERS = {"qualities": QUALITIES, "N": POPULATION, "T": HORIZON}

PARALLEL_WORKERS = 4
REQUIRED_PARALLEL_SPEEDUP = 2.0
REQUIRED_REPLAY_SPEEDUP = 50.0


def _run(executor=None, store=None, base_parameters=BASE_PARAMETERS):
    """One full sweep through the runtime; returns (seconds, per-point metrics)."""
    start = time.perf_counter()
    results, _ = run_sweep(
        "bench-runtime",
        GRID,
        dynamics_point_replication,
        replications=REPLICATES,
        seed=0,
        base_parameters=base_parameters,
        options=ExecutionOptions(executor=executor, store=store),
    )
    seconds = time.perf_counter() - start
    assert len(results) == len(GRID)
    assert all(len(result.metrics) == REPLICATES for result in results)
    return seconds, [result.metrics for result in results]


@pytest.mark.benchmark(group="throughput")
def test_runtime_sharding_and_replay_throughput(save_results, tmp_path):
    """4-worker sharding >= 2x over serial; warm-store replay >= 50x, 0 misses."""
    # Warm once (imports, allocator) before timing the serial baseline.
    _run(executor=SerialExecutor())
    serial_seconds, serial_metrics = _run(executor=SerialExecutor())

    rows = [
        {
            "execution": "serial",
            "seconds": serial_seconds,
            "speedup_vs_serial": 1.0,
            "tasks": len(GRID) * REPLICATES,
        }
    ]

    can_go_parallel = (os.cpu_count() or 1) >= PARALLEL_WORKERS
    if can_go_parallel:
        with ParallelExecutor(PARALLEL_WORKERS) as executor:
            # The pool starts once per executor (forkserver start, worker
            # imports); a small throwaway sweep pays that before timing.
            start_up_seconds, _ = _run(
                executor=executor,
                base_parameters={**BASE_PARAMETERS, "N": 200, "T": 10},
            )
            parallel_seconds, parallel_metrics = _run(executor=executor)
        assert parallel_metrics == serial_metrics, (
            "parallel sweep is not bit-identical to serial"
        )
        rows.append(
            {
                "execution": f"parallel-{PARALLEL_WORKERS}-pool-start-up",
                "seconds": start_up_seconds,
                "tasks": len(GRID) * REPLICATES,
            }
        )
        rows.append(
            {
                "execution": f"parallel-{PARALLEL_WORKERS}",
                "seconds": parallel_seconds,
                "speedup_vs_serial": serial_seconds / parallel_seconds,
                "tasks": len(GRID) * REPLICATES,
            }
        )

    store_path = tmp_path / "bench_runtime.sqlite"
    with ResultStore(store_path) as store:
        cold_seconds, cold_metrics = _run(store=store)
        assert store.misses == len(GRID) * REPLICATES
    with ResultStore(store_path) as store:
        replay_seconds, replay_metrics = _run(store=store)
        assert store.misses == 0, "warm replay recomputed tasks"
    assert cold_metrics == serial_metrics
    assert replay_metrics == serial_metrics
    replay_speedup = cold_seconds / replay_seconds
    rows.append(
        {
            "execution": "cache-replay",
            "seconds": replay_seconds,
            "speedup_vs_serial": serial_seconds / replay_seconds,
            "tasks": len(GRID) * REPLICATES,
        }
    )

    save_results(ResultTable(rows), "bench_runtime")

    assert replay_speedup >= REQUIRED_REPLAY_SPEEDUP, (
        f"cache-hit replay speedup {replay_speedup:.1f}x below the required "
        f"{REQUIRED_REPLAY_SPEEDUP:.0f}x over cold compute"
    )
    if not can_go_parallel:
        pytest.skip(
            f"only {os.cpu_count()} CPUs: the {PARALLEL_WORKERS}-worker "
            f">= {REQUIRED_PARALLEL_SPEEDUP:.0f}x floor needs "
            f"{PARALLEL_WORKERS} cores"
        )
    parallel_speedup = serial_seconds / parallel_seconds
    assert parallel_speedup >= REQUIRED_PARALLEL_SPEEDUP, (
        f"{PARALLEL_WORKERS}-worker speedup {parallel_speedup:.1f}x below the "
        f"required {REQUIRED_PARALLEL_SPEEDUP:.0f}x on a CPU-bound "
        f"{len(GRID)}-point x {REPLICATES}-replicate grid at N={POPULATION}"
    )


# -- store-bound replay at scale ---------------------------------------------

STORE_ENTRIES = 100_000
STORE_BATCH = 5_000
STORE_METRIC_ROWS = 2
REPLAY_REQUEST_KEYS = 875  # per-seed tasks in one serve-replay request
REPLAY_REQUESTS = 50
KEY_PASSES = 5
REQUIRED_ONE_PASS_KEY_SPEEDUP = 2.0


def _synthetic_task(index: int) -> Task:
    """A minimal, cheap-to-key task; parameters make every key distinct."""
    return Task(
        ordinal=index,
        point_index=index,
        name="bench-store",
        function_ref="benchmarks.test_bench_runtime:_synthetic_task",
        mode="per_seed",
        parameters={"index": index, "beta": 0.55 + (index % 32) / 1000.0},
        seeds=(index,),
        replicate_offset=0,
    )


def _replay_request_plan() -> ShardPlan:
    """The loop-engine sweep plan of one serve-replay request: 5 points x 175 seeds."""
    configs = sweep_configs(
        "sweep-loop",
        ParameterGrid({"N": (12, 19, 27, 33, 40)}),
        replications=REPLAY_REQUEST_KEYS // 5,
        seed=1234,
        base_parameters={"qualities": (0.71, 0.42), "T": 8, "beta": 0.6},
    )
    plan = ShardPlan.from_configs(configs, dynamics_point_replication)
    assert len(plan) == REPLAY_REQUEST_KEYS
    return plan


def _best_seconds(function) -> float:
    best = float("inf")
    for _ in range(KEY_PASSES):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _synthetic_metrics(index: int):
    return [
        {"regret": 1.0 / (index + 1), "share": 0.5 + (index % 7) / 100.0}
        for _ in range(STORE_METRIC_ROWS)
    ]


@pytest.mark.benchmark(group="throughput")
def test_store_bound_replay_at_scale(save_results, tmp_path):
    """Store replay over 1e5 cached entries: populate, replay request, cold get.

    Measures the store alone (no simulation), opened as the CLI opens it:
    bulk ``put_many`` in shard-sized batches, a repeated
    ``REPLAY_REQUEST_KEYS``-key ``get_many`` (the size of one daemon replay
    request), and — after a reopen — one ``get_many`` over every key.
    Asserts zero misses on both replay phases and a bit-identical round
    trip; throughput is recorded but not floored.  It also derives the keys
    of one replay request's plan task by task (``key_for``) and in one pass
    (``keys_for``), asserts they are equal and floors the one-pass speedup
    at 2x (best of ``KEY_PASSES`` each).
    """
    plan = _replay_request_plan()
    with ResultStore() as key_store:
        one_pass = key_store.keys_for(plan.tasks)
        assert one_pass == [key_store.key_for(task) for task in plan.tasks]
        per_task_seconds = _best_seconds(
            lambda: [key_store.key_for(task) for task in plan.tasks]
        )
        one_pass_seconds = _best_seconds(lambda: key_store.keys_for(plan.tasks))

    path = tmp_path / "bench_store.sqlite"
    tasks = [_synthetic_task(index) for index in range(STORE_ENTRIES)]
    expected = {index: _synthetic_metrics(index) for index in range(0, STORE_ENTRIES, 9973)}

    store = ResultStore(path)
    start = time.perf_counter()
    for begin in range(0, STORE_ENTRIES, STORE_BATCH):
        batch = tasks[begin : begin + STORE_BATCH]
        store.put_many(
            [(task, _synthetic_metrics(task.ordinal)) for task in batch]
        )
    populate_seconds = time.perf_counter() - start
    keys = [store.key_for(task) for task in tasks]

    request_keys = keys[:REPLAY_REQUEST_KEYS]
    start = time.perf_counter()
    for _ in range(REPLAY_REQUESTS):
        replayed = store.get_many(request_keys)
    request_seconds = time.perf_counter() - start
    assert len(replayed) == REPLAY_REQUEST_KEYS
    assert store.counters().misses == 0, "request replay missed cached entries"
    store.close()

    # Cold replay: a fresh process' first pass over the same store.
    store = ResultStore(path)
    start = time.perf_counter()
    cold = store.get_many(keys)
    cold_seconds = time.perf_counter() - start
    assert len(cold) == STORE_ENTRIES
    assert store.counters().misses == 0, "cold replay missed cached entries"
    store.close()

    for index, metrics in expected.items():
        assert cold[keys[index]] == metrics, "store did not round-trip bit-identically"

    save_results(
        ResultTable(
            [
                {
                    "phase": phase,
                    "seconds": seconds,
                    "entries_per_second": entries / seconds,
                    "entries": entries,
                }
                for phase, seconds, entries in (
                    ("populate", populate_seconds, STORE_ENTRIES),
                    (
                        "replay-request",
                        request_seconds,
                        REPLAY_REQUESTS * REPLAY_REQUEST_KEYS,
                    ),
                    ("cold-replay", cold_seconds, STORE_ENTRIES),
                    ("keys-per-task", per_task_seconds, REPLAY_REQUEST_KEYS),
                    ("keys-one-pass", one_pass_seconds, REPLAY_REQUEST_KEYS),
                )
            ]
        ),
        "bench_store_replay",
    )
    key_speedup = per_task_seconds / one_pass_seconds
    assert key_speedup >= REQUIRED_ONE_PASS_KEY_SPEEDUP, (
        f"one-pass key derivation {key_speedup:.1f}x faster than per-task "
        f"key_for, below the required {REQUIRED_ONE_PASS_KEY_SPEEDUP:.0f}x on "
        f"a {REPLAY_REQUEST_KEYS}-task replay plan"
    )
