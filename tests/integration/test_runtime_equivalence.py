"""Integration lockdown for the parallel runtime.

Three guarantees the runtime advertises:

* **Execution invariance** — for both replication modes (per-seed loop and
  grid, the latter both as the fused dynamics grid and as the protocol
  engine's launch per point), a sweep produces bit-identical
  per-(point, seed) metrics whether it runs on the in-process serial
  executor, a 2-worker process pool, or entirely from a warm result store.
* **No flag changes a number** — the same request gives the same rows from
  the CLI (plain, ``--store``, ``--workers 2``, ``--trace-out``), a daemon
  job, and a campaign simulate node on the serial, pool and broker backends.
* **Resumability** — a run killed mid-sweep leaves every completed shard in
  the store; re-running the same sweep serves those shards from cache,
  computes only the remainder, and ends bit-identical to a never-killed run.
"""

import threading

import pytest

from repro.campaign import BrokerBackend, campaign_from_spec, run_broker, run_campaign
from repro.cli import main as cli_main
from repro.experiments import (
    ExperimentConfig,
    ParameterGrid,
    ResultTable,
    run_replications,
    run_sweep,
    write_csv,
)
from repro.experiments.dynamics_sweep import (
    dynamics_grid_replication,
    dynamics_point_replication,
)
from repro.experiments.protocol_sweep import protocol_batched_replication
from repro.runtime import (
    ExecutionOptions,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
)
from repro.service import ServiceClient, request_from_dict, start_daemon

GRID = ParameterGrid({"N": [60, 120], "beta": [0.6, 0.7]})
BASE = {"qualities": (0.8, 0.5), "T": 10}

REPLICATIONS = {
    "loop": dynamics_point_replication,
    "batched": protocol_batched_replication,  # grid form, one launch per point
    "grid": dynamics_grid_replication,
}


def sweep_metrics(replication, **options):
    results, _ = run_sweep(
        "runtime-xval",
        GRID,
        replication,
        replications=3,
        seed=17,
        base_parameters=BASE,
        options=ExecutionOptions(**options) if options else None,
    )
    return [result.metrics for result in results]


@pytest.mark.parametrize("mode", sorted(REPLICATIONS))
def test_serial_two_worker_and_cached_sweeps_are_bit_identical(mode, tmp_path):
    replication = REPLICATIONS[mode]
    plain = sweep_metrics(replication)
    serial = sweep_metrics(replication, executor=SerialExecutor())
    parallel = sweep_metrics(
        replication, executor=ParallelExecutor(2, shards_per_worker=2)
    )
    assert serial == plain
    assert parallel == plain

    store_path = tmp_path / f"{mode}.sqlite"
    with ResultStore(store_path) as store:
        cold = sweep_metrics(replication, store=store)
        assert store.misses and not store.hits
    with ResultStore(store_path) as store:
        replay = sweep_metrics(replication, store=store)
        assert store.misses == 0  # zero recomputation from a warm store
    assert cold == plain
    assert replay == plain


# -- the flag matrix: one request, every front end and flag --------------------

MATRIX = {
    "batched-sweep": (
        {"kind": "sweep", "options": [0.8, 0.5], "populations": [200, 400],
         "horizon": 30, "replications": 4, "seed": 0, "engine": "batched"},
        ["sweep", "--options", "0.8", "0.5", "--populations", "200", "400",
         "--horizon", "30", "--replications", "4", "--seed", "0"],
    ),
    "loop-sweep": (
        {"kind": "sweep", "options": [0.8, 0.5], "populations": [40, 60],
         "horizon": 8, "replications": 3, "seed": 2, "engine": "loop"},
        ["sweep", "--options", "0.8", "0.5", "--populations", "40", "60",
         "--horizon", "8", "--replications", "3", "--seed", "2",
         "--engine", "loop"],
    ),
    "network": (
        {"kind": "network", "options": [0.8, 0.5], "topology": "ring",
         "size": 60, "horizon": 8, "replications": 3, "seed": 4},
        ["network", "--options", "0.8", "0.5", "--topology", "ring",
         "--size", "60", "--horizon", "8", "--replications", "3",
         "--seed", "4"],
    ),
    "protocol": (
        {"kind": "protocol", "options": [0.8, 0.5], "nodes": 60, "rounds": 8,
         "loss": 0.2, "replications": 3, "seed": 5},
        ["protocol", "--options", "0.8", "0.5", "--nodes", "60",
         "--rounds", "8", "--loss", "0.2", "--replications", "3",
         "--seed", "5"],
    ),
}


def csv_bytes(rows, path):
    """``rows`` written as ``--output`` writes them (JSON lists back to tuples)."""
    table = ResultTable()
    for row in rows:
        table.add_row(
            {key: tuple(value) if isinstance(value, list) else value
             for key, value in row.items()}
        )
    return write_csv(table, path).read_bytes()


def cli_csv(arguments, path):
    assert cli_main(arguments + ["--output", str(path)]) == 0
    return path.read_bytes()


def start_broker_thread(address):
    thread = threading.Thread(
        target=run_broker, args=(address,), kwargs={"connect_timeout": 10.0},
        daemon=True,
    )
    thread.start()
    return thread


@pytest.fixture(scope="module")
def service_csvs(tmp_path_factory):
    """Per request, the CSV of its rows from daemon jobs and from campaigns."""
    root = tmp_path_factory.mktemp("matrix")
    rows = {name: {} for name in MATRIX}
    with ResultStore(root / "daemon.sqlite") as store:
        # A serial daemon with a store, and a daemon whose jobs share one
        # worker pool (without a store, so every job runs on the pool).
        daemons = {"daemon": {"store": store}, "daemon-pool": {"process_workers": 2}}
        for label, settings in daemons.items():
            with start_daemon(**settings) as daemon:
                client = ServiceClient(daemon.url)
                for name, (payload, _) in MATRIX.items():
                    rows[name][label] = client.run(request_from_dict(payload))
    campaign = campaign_from_spec({
        "name": "flag-matrix",
        "nodes": [
            {"id": name, "kind": "simulate", "request": dict(payload)}
            for name, (payload, _) in MATRIX.items()
        ],
    })
    with BrokerBackend(min_brokers=2, timeout=30.0) as brokers:
        threads = [start_broker_thread(brokers.address) for _ in range(2)]
        backends = {
            "campaign-serial": SerialExecutor(),
            "campaign-pool": ParallelExecutor(2),
            "campaign-brokers": brokers,
        }
        for label, backend in backends.items():
            result = run_campaign(campaign, backend=backend)
            for name in MATRIX:
                rows[name][label] = list(result[name].rows)
    for thread in threads:
        thread.join(timeout=10.0)
    return {
        name: {
            label: csv_bytes(label_rows, root / f"{name}-{label}.csv")
            for label, label_rows in by_label.items()
        }
        for name, by_label in rows.items()
    }


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_no_flag_changes_a_number(name, tmp_path, service_csvs):
    _, arguments = MATRIX[name]
    plain = cli_csv(arguments, tmp_path / "plain.csv")
    variants = {
        "--store": cli_csv(
            arguments + ["--store", str(tmp_path / "s.sqlite")],
            tmp_path / "store.csv",
        ),
        "--workers 2": cli_csv(
            arguments + ["--workers", "2"], tmp_path / "workers.csv"
        ),
        "--trace-out": cli_csv(
            arguments + ["--trace-out", str(tmp_path / "t.jsonl")],
            tmp_path / "trace.csv",
        ),
        **service_csvs[name],
    }
    for label, csv in variants.items():
        assert csv == plain, f"{name}: {label} changed the rows"


class FailAfterFirstShard:
    """An executor that dies after its first completed shard (a mock kill)."""

    def __init__(self, num_shards=4):
        self.num_shards = num_shards

    def run_shards(self, shards, replication):
        executor = SerialExecutor(num_shards=self.num_shards)
        for index, shard_results in enumerate(executor.run_shards(shards, replication)):
            if index >= 1:
                raise KeyboardInterrupt("simulated mid-sweep kill")
            yield shard_results


def test_killed_sweep_resumes_from_the_store(tmp_path):
    store_path = tmp_path / "resume.sqlite"
    with ResultStore(store_path) as store:
        with pytest.raises(KeyboardInterrupt):
            sweep_metrics(
                dynamics_point_replication,
                executor=FailAfterFirstShard(num_shards=4),
                store=store,
            )
        persisted = len(store)
        assert 0 < persisted < 12  # some shards flushed, some lost

    with ResultStore(store_path) as store:
        resumed = sweep_metrics(dynamics_point_replication, store=store)
        assert store.hits == persisted  # completed shards were not recomputed
        assert store.misses == 12 - persisted

    assert resumed == sweep_metrics(dynamics_point_replication)


def test_run_replications_executor_and_store_round_trip(tmp_path):
    config = ExperimentConfig(
        name="single-point",
        parameters=dict(BASE, N=80, beta=0.6),
        replications=4,
        seed=3,
    )
    baseline = run_replications(config, dynamics_point_replication)
    with ResultStore(tmp_path / "single.sqlite") as store:
        sharded = run_replications(
            config,
            dynamics_point_replication,
            options=ExecutionOptions(executor=ParallelExecutor(2), store=store),
        )
        replayed = run_replications(
            config, dynamics_point_replication, options=ExecutionOptions(store=store)
        )
        assert store.hits == 4
    assert sharded.metrics == baseline.metrics
    assert replayed.metrics == baseline.metrics
    assert sharded.seeds == baseline.seeds
