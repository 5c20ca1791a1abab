"""Per-seed streams: every batched network and protocol row is a function of
its (point, seed) alone.

Replicate ``r`` of a batched network or protocol launch draws from
``np.random.default_rng([seed_r])``, the generator an ``R = 1`` run of that
seed gets, and reduces over its own rows.  So a row equals the one-seed
call ``fn([[seed]], [point])`` bit for bit whichever seeds share its
launch, the runtime can plan one task per (point, seed), and a warm store
serves the seeds it already holds of a larger batch.
"""

import pytest

from repro.experiments import ExperimentConfig, run_replications
from repro.experiments.network_sweep import network_batched_replication
from repro.experiments.protocol_sweep import protocol_batched_replication
from repro.runtime import (
    ExecutionOptions,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
)
from repro.utils.rng import seeds_for_replications

NETWORK = {
    "qualities": (0.8, 0.5, 0.3),
    "topology": "watts_strogatz",
    "N": 120,
    "T": 15,
    "graph_seed": 2,
}
PROTOCOL = {
    "qualities": (0.8, 0.5, 0.3),
    "N": 120,
    "T": 15,
    "loss": 0.2,
    "crash": 0.01,
    "mass_crash_round": 6,
    "mass_crash_fraction": 0.4,
}
POINTS = {
    "network": (network_batched_replication, NETWORK),
    "network-float32": (network_batched_replication, dict(NETWORK, dtype="float32")),
    "protocol": (protocol_batched_replication, PROTOCOL),
    "protocol-float32": (protocol_batched_replication, dict(PROTOCOL, dtype="float32")),
    "protocol-lossless": (protocol_batched_replication, dict(PROTOCOL, loss=0.0)),
}
SEEDS = seeds_for_replications(27, 8)


@pytest.mark.parametrize("name", sorted(POINTS))
def test_every_row_is_the_one_seed_run_of_its_seed(name):
    function, point = POINTS[name]
    alone = {seed: function([[seed]], [dict(point)])[0][0] for seed in SEEDS}
    for replications in (1, 3, 8):
        seeds = SEEDS[-replications:]
        (rows,) = function([seeds], [dict(point)])
        assert rows == [alone[seed] for seed in seeds]
    # Two points in one call, the second holding a seed of the first.
    pair = function([SEEDS[:2], SEEDS[1:4]], [dict(point), dict(point)])
    assert pair == [
        [alone[seed] for seed in SEEDS[:2]],
        [alone[seed] for seed in SEEDS[1:4]],
    ]


@pytest.mark.parametrize("name", ["network", "protocol"])
def test_run_replications_gives_the_same_rows_on_every_executor(name, tmp_path):
    function, point = POINTS[name]
    config = ExperimentConfig(
        name=name, parameters=dict(point), replications=5, seed=27
    )
    alone = [function([[seed]], [dict(point)])[0][0] for seed in SEEDS[:5]]
    serial = run_replications(
        config, function, options=ExecutionOptions(executor=SerialExecutor())
    )
    with ParallelExecutor(2) as executor:
        pooled = run_replications(
            config, function, options=ExecutionOptions(executor=executor)
        )
    with ResultStore(tmp_path / "rows.sqlite") as store:
        options = ExecutionOptions(store=store)
        stored = run_replications(config, function, options=options)
        warm = run_replications(config, function, options=options)
        assert store.counters() == (5, 5)
    for result in (serial, pooled, stored, warm):
        assert result.seeds == SEEDS[:5]
        assert result.metrics == alone


@pytest.mark.parametrize("name", ["network", "protocol"])
def test_a_warm_store_serves_part_of_a_batch(name, tmp_path):
    function, point = POINTS[name]
    path = tmp_path / "partial.sqlite"
    counts = []
    rows = {}
    for replications in (4, 8, 2):
        config = ExperimentConfig(
            name=name, parameters=dict(point), replications=replications, seed=27
        )
        with ResultStore(path) as store:
            rows[replications] = run_replications(
                config, function, options=ExecutionOptions(store=store)
            ).metrics
            counts.append(store.counters())
    assert counts == [(0, 4), (4, 4), (2, 0)]
    assert rows[8][:4] == rows[4]
    assert rows[8][:2] == rows[2]
