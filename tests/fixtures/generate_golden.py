"""Generator for the golden-trajectory regression fixtures.

Each function runs one engine on a small, fully pinned configuration and
returns a JSON-serialisable record of everything the run produced: the
per-step counts, the rewards the engine observed, and the configuration that
produced them.  ``tests/integration/test_golden_trajectories.py`` re-runs the
same configurations and compares bit-for-bit against the committed JSON under
``tests/fixtures/golden/``, so *any* silent change to an engine's dynamics —
a reordered random draw, an off-by-one in the clock, a broadcasting bug — is
caught even when every statistical test still passes.

To regenerate after an *intentional* dynamics change::

    PYTHONPATH=src python tests/fixtures/generate_golden.py

and print the digests of the digest-pinned runs with ``--digests``.

NumPy only guarantees distribution-stream stability within a release line, so
every fixture records the ``major.minor`` NumPy version it was generated
under; the comparison test skips (rather than fails) under a different
release line.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.core.adoption import RowwiseAdoptionRule, SymmetricAdoptionRule
from repro.core.batched import BatchedDynamics
from repro.core.dynamics import FinitePopulationDynamics
from repro.core.sampling import MixtureSampling
from repro.distributed import BatchedProtocol
from repro.environments import BernoulliEnvironment, RowwiseBernoulliEnvironment
from repro.experiments.dynamics_sweep import dynamics_point_replication
from repro.network import BatchedNetworkDynamics, NetworkDynamics, SocialNetwork
from repro.utils.rng import seeds_for_replications

GOLDEN_DIR = Path(__file__).parent / "golden"

SEQUENTIAL_CONFIG = {
    "qualities": [0.8, 0.5, 0.35],
    "population_size": 500,
    "horizon": 20,
    "beta": 0.65,
    "mu": 0.05,
    "environment_seed": 11,
    "dynamics_seed": 12,
}

BATCHED_CONFIG = {
    # Four rows, every per-row knob different: qualities, N, alpha, beta, mu.
    "qualities": [
        [0.8, 0.5, 0.35],
        [0.7, 0.6, 0.2],
        [0.9, 0.3, 0.3],
        [0.6, 0.55, 0.5],
    ],
    "population_sizes": [120, 260, 400, 75],
    "alpha": [0.35, 0.3, 0.25, 0.4],
    "beta": [0.65, 0.7, 0.75, 0.6],
    "mu": [0.05, 0.1, 0.02, 0.2],
    "horizon": 15,
    "seed": 21,
}

NETWORK_CONFIG = {
    "qualities": [0.85, 0.45],
    "ring_size": 30,
    "neighbors_each_side": 2,
    "horizon": 15,
    "beta": 0.65,
    "mu": 0.1,
    "environment_seed": 31,
    "dynamics_seed": 32,
}

# One replicate of the batched engine, seeded per replicate (environment and
# engine seeded separately).  It consumes the random stream differently from
# the loop engine, so it gets its own fixture at the same configuration (and
# its own seeds, to make clear no bit-identity with the loop fixture is
# implied).  The fixture was recorded with the single-replicate engine that
# the batched engine at R = 1 replaced; it reproduces it byte for byte.
NETWORK_VECTORIZED_CONFIG = {
    "qualities": [0.85, 0.45],
    "ring_size": 30,
    "neighbors_each_side": 2,
    "horizon": 15,
    "beta": 0.65,
    "mu": 0.1,
    "environment_seed": 41,
    "dynamics_seed": 42,
}

NETWORK_BATCHED_CONFIG = {
    "qualities": [0.8, 0.5, 0.35],
    "ring_size": 24,
    "neighbors_each_side": 2,
    "num_replicates": 3,
    "horizon": 12,
    "beta": 0.7,
    "mu": 0.08,
    "seed": 51,
}

# The protocol fixture exercises the full lossy surface: message loss,
# per-round crashes and a mid-run mass failure, so a drift in any of the
# loss masks, the peer draw, the crash injection or the adopt thinning
# changes the committed trajectory.
PROTOCOL_BATCHED_CONFIG = {
    "qualities": [0.85, 0.45, 0.3],
    "num_nodes": 30,
    "num_replicates": 3,
    "horizon": 10,
    "beta": 0.65,
    "mu": 0.1,
    "loss_rate": 0.25,
    "per_round_crash_probability": 0.02,
    "mass_failure_round": 5,
    "mass_failure_fraction": 0.3,
    "max_query_attempts": 4,
    "seed": 71,
}


# Runs at the sizes the daemon's never-cached jobs use (N ~ 3000, R = 8):
# too large to commit as fixtures, so the test pins the SHA-256 digest of each
# record instead (see :func:`record_digest`), at both storage precisions.
SERVE_SIZE_NETWORK_CONFIG = {
    "qualities": [0.82, 0.61, 0.37],
    "topology": "watts_strogatz",
    "size": 3000,
    "nearest_neighbors": 6,
    "rewiring_probability": 0.1,
    "graph_seed": 81,
    "num_replicates": 8,
    "horizon": 40,
    "beta": 0.7,
    "mu": 0.05,
    "seed": 82,
}

SERVE_SIZE_PROTOCOL_CONFIG = {
    "qualities": [0.85, 0.62, 0.45, 0.3],
    "num_nodes": 3000,
    "num_replicates": 8,
    "horizon": 40,
    "beta": 0.65,
    "mu": 0.05,
    "loss_rate": 0.15,
    "per_round_crash_probability": 0.002,
    "mass_failure_round": 20,
    "mass_failure_fraction": 0.3,
    "max_query_attempts": 6,
    "seed": 91,
}


# One replicate re-run from its own seed: a batched engine at R = 1 whose
# environment is seeded at ``seed`` and whose engine is seeded at
# ``seed + 1``, the per-seed convention.  The test pins the digest of each
# record; the digests were recorded with the single-replicate engines these
# runs replaced, so they also pin that R = 1 reproduces those engines draw
# for draw.
SINGLE_REPLICATE_NETWORK_CONFIGS = {
    topology: {
        "qualities": [0.8, 0.55, 0.4],
        "topology": topology,
        "size": size,
        "horizon": 30,
        "beta": 0.7,
        "mu": 0.05,
        "seed": seed,
    }
    for topology, size, seed in (
        ("watts_strogatz", 400, 101),
        ("ring", 300, 103),
        ("star", 200, 105),
        ("complete", 120, 107),
    )
}

SINGLE_REPLICATE_PROTOCOL_CONFIGS = {
    f"loss={loss}": {
        "qualities": [0.85, 0.6, 0.4],
        "num_nodes": 300,
        "horizon": 30,
        "beta": 0.65,
        "mu": 0.05,
        "loss_rate": loss,
        "max_query_attempts": 6,
        "seed": seed,
    }
    for loss, seed in ((0.0, 111), (0.15, 113), (0.3, 115))
}


def _numpy_release() -> str:
    return ".".join(np.__version__.split(".")[:2])


def _record(engine: str, config: dict, counts, rewards, extra: dict = None) -> dict:
    record = {
        "engine": engine,
        "numpy_release": _numpy_release(),
        "config": config,
        "counts": np.asarray(counts).tolist(),
        "rewards": np.asarray(rewards).tolist(),
    }
    record.update(extra or {})
    return record


def golden_sequential() -> dict:
    """Seeded :class:`FinitePopulationDynamics` run, counts recorded per step."""
    config = SEQUENTIAL_CONFIG
    environment = BernoulliEnvironment(config["qualities"], rng=config["environment_seed"])
    dynamics = FinitePopulationDynamics(
        population_size=config["population_size"],
        num_options=len(config["qualities"]),
        adoption_rule=SymmetricAdoptionRule(config["beta"]),
        sampling_rule=MixtureSampling(config["mu"]),
        rng=config["dynamics_seed"],
    )
    trajectory = dynamics.run(environment, config["horizon"])
    return _record(
        "sequential",
        config,
        [state.counts for state in trajectory.states],
        trajectory.rewards,
    )


def golden_batched() -> dict:
    """Seeded per-row-parameterised :class:`BatchedDynamics` run.

    Exercises the full sweep-axis surface in one fixture: per-row qualities
    (via :class:`RowwiseBernoulliEnvironment`), per-row population sizes,
    per-row ``(alpha, beta)`` and per-row ``mu`` — one generator shared by
    the environment and the dynamics, exactly as the batched sweep wires it.
    """
    config = BATCHED_CONFIG
    generator = np.random.default_rng(config["seed"])
    environment = RowwiseBernoulliEnvironment(config["qualities"], rng=generator)
    dynamics = BatchedDynamics(
        num_replicates=len(config["population_sizes"]),
        population_size=np.asarray(config["population_sizes"]),
        num_options=len(config["qualities"][0]),
        adoption_rule=RowwiseAdoptionRule(config["alpha"], config["beta"]),
        sampling_rule=MixtureSampling(np.asarray(config["mu"], dtype=float)),
        rng=generator,
    )
    trajectory = dynamics.run(environment, config["horizon"])
    return _record(
        "batched",
        config,
        [state.counts for state in trajectory.states],
        trajectory.rewards,
    )


def golden_network() -> dict:
    """Seeded :class:`NetworkDynamics` run on a ring, choices recorded per step."""
    config = NETWORK_CONFIG
    environment = BernoulliEnvironment(config["qualities"], rng=config["environment_seed"])
    network = SocialNetwork.ring(
        config["ring_size"], neighbors_each_side=config["neighbors_each_side"]
    )
    dynamics = NetworkDynamics(
        network=network,
        num_options=len(config["qualities"]),
        adoption_rule=SymmetricAdoptionRule(config["beta"]),
        exploration_rate=config["mu"],
        rng=config["dynamics_seed"],
    )
    choices = []
    counts = []
    rewards = []
    for _ in range(config["horizon"]):
        reward = environment.sample()
        state = dynamics.step(reward)
        rewards.append(reward)
        counts.append(state.counts)
        choices.append(dynamics.choices())
    return _record(
        "network",
        config,
        counts,
        rewards,
        extra={"choices": np.asarray(choices).tolist()},
    )


def golden_network_vectorized() -> dict:
    """Seeded one-replicate :class:`BatchedNetworkDynamics` run on a ring."""
    config = NETWORK_VECTORIZED_CONFIG
    environment = BernoulliEnvironment(config["qualities"], rng=config["environment_seed"])
    network = SocialNetwork.ring(
        config["ring_size"], neighbors_each_side=config["neighbors_each_side"]
    )
    dynamics = BatchedNetworkDynamics(
        network=network,
        num_options=len(config["qualities"]),
        num_replicates=1,
        adoption_rule=SymmetricAdoptionRule(config["beta"]),
        exploration_rate=config["mu"],
        rng=config["dynamics_seed"],
    )
    choices = []
    counts = []
    rewards = []
    for _ in range(config["horizon"]):
        reward = environment.sample_batch(1)
        state = dynamics.step(reward)
        rewards.append(reward[0])
        counts.append(state.counts[0])
        choices.append(dynamics.choices()[0])
    return _record(
        "network_vectorized",
        config,
        counts,
        rewards,
        extra={"choices": np.asarray(choices).tolist()},
    )


def _batched_network(config: dict) -> SocialNetwork:
    if config.get("topology") == "watts_strogatz":
        return SocialNetwork.watts_strogatz(
            config["size"],
            nearest_neighbors=config["nearest_neighbors"],
            rewiring_probability=config["rewiring_probability"],
            rng=config["graph_seed"],
        )
    return SocialNetwork.ring(
        config["ring_size"], neighbors_each_side=config["neighbors_each_side"]
    )


def golden_network_batched(config: dict = NETWORK_BATCHED_CONFIG) -> dict:
    """Seeded :class:`BatchedNetworkDynamics` run: R replicates on one graph.

    One plain generator drives both the environment batch draws and the
    dynamics, which the engine treats as one block over all R rows.
    ``network_batched_replication`` does not wire a launch this way: each of
    its rows draws from its own seed's generator (a ``RowBlockGenerator`` of
    one-seed blocks).  This run pins the engine's plain-generator path, not
    that function's rows at R > 1.  The graph is a ring unless ``config``
    names the ``watts_strogatz`` topology; an optional ``dtype`` key selects
    the storage precision.
    """
    generator = np.random.default_rng(config["seed"])
    environment = BernoulliEnvironment(config["qualities"], rng=generator)
    dynamics = BatchedNetworkDynamics(
        network=_batched_network(config),
        num_options=len(config["qualities"]),
        num_replicates=config["num_replicates"],
        adoption_rule=SymmetricAdoptionRule(config["beta"]),
        exploration_rate=config["mu"],
        rng=generator,
        precision=config.get("dtype"),
    )
    choices = []
    counts = []
    rewards = []
    for _ in range(config["horizon"]):
        reward = environment.sample_batch(config["num_replicates"])
        state = dynamics.step(reward)
        rewards.append(reward)
        counts.append(state.counts)
        choices.append(dynamics.choices())
    return _record(
        "network_batched",
        config,
        counts,
        rewards,
        extra={"choices": np.asarray(choices).tolist()},
    )


def golden_protocol_batched(config: dict = PROTOCOL_BATCHED_CONFIG) -> dict:
    """Seeded :class:`BatchedProtocol` run: R lossy fleets in one launch.

    One plain generator drives both the environment batch draws and the
    protocol, which the engine treats as one block over all R rows.
    ``protocol_batched_replication`` does not wire a launch this way: each of
    its rows draws from its own seed's generator (a ``RowBlockGenerator`` of
    one-seed blocks).  This run pins the engine's plain-generator path, not
    that function's rows at R > 1.  An optional ``dtype`` key in ``config``
    selects the storage precision.
    """
    generator = np.random.default_rng(config["seed"])
    environment = BernoulliEnvironment(config["qualities"], rng=generator)
    protocol = BatchedProtocol(
        num_nodes=config["num_nodes"],
        num_options=len(config["qualities"]),
        num_replicates=config["num_replicates"],
        adoption_rule=SymmetricAdoptionRule(config["beta"]),
        exploration_rate=config["mu"],
        loss_rate=config["loss_rate"],
        per_round_crash_probability=config["per_round_crash_probability"],
        mass_failure_round=config["mass_failure_round"],
        mass_failure_fraction=config["mass_failure_fraction"],
        max_query_attempts=config["max_query_attempts"],
        rng=generator,
        precision=config.get("dtype"),
    )
    choices = []
    alive = []
    counts = []
    rewards = []
    for _ in range(config["horizon"]):
        reward = environment.sample_batch(config["num_replicates"])
        protocol.run_round(reward)
        rewards.append(reward)
        choices.append(protocol.choices())
        alive.append(protocol.alive())
        counts.append(protocol.state().counts)
    return _record(
        "protocol_batched",
        config,
        counts,
        rewards,
        extra={
            "choices": np.asarray(choices).tolist(),
            "alive": np.asarray(alive).tolist(),
            "transport_stats": protocol.transport_stats(),
            "fallback_explorations": protocol.fallback_explorations,
        },
    )


def _single_replicate_network(config: dict) -> SocialNetwork:
    size = config["size"]
    if config["topology"] == "watts_strogatz":
        return SocialNetwork.watts_strogatz(
            size, nearest_neighbors=6, rewiring_probability=0.1, rng=config["seed"]
        )
    if config["topology"] == "ring":
        return SocialNetwork.ring(size, neighbors_each_side=2)
    if config["topology"] == "star":
        return SocialNetwork.star(size)
    return SocialNetwork.complete(size)


def network_single_replicate(config: dict) -> dict:
    """One network replicate: :class:`BatchedNetworkDynamics` at R = 1.

    Records the replicate's per-step choices, counts and rewards (row 0 of
    each batch).
    """
    environment = BernoulliEnvironment(config["qualities"], rng=config["seed"])
    dynamics = BatchedNetworkDynamics(
        network=_single_replicate_network(config),
        num_options=len(config["qualities"]),
        num_replicates=1,
        adoption_rule=SymmetricAdoptionRule(config["beta"]),
        exploration_rate=config["mu"],
        rng=config["seed"] + 1,
    )
    choices = []
    counts = []
    rewards = []
    for _ in range(config["horizon"]):
        reward = environment.sample_batch(1)
        state = dynamics.step(reward)
        rewards.append(reward[0])
        counts.append(state.counts[0])
        choices.append(dynamics.choices()[0])
    return _record(
        "network_single_replicate",
        config,
        counts,
        rewards,
        extra={"choices": np.asarray(choices).tolist()},
    )


def protocol_single_replicate(config: dict) -> dict:
    """One loss-only protocol replicate: :class:`BatchedProtocol` at R = 1.

    Records the replicate's per-round choices, counts and rewards, plus the
    run's transport counters and fallback count.
    """
    environment = BernoulliEnvironment(config["qualities"], rng=config["seed"])
    protocol = BatchedProtocol(
        num_nodes=config["num_nodes"],
        num_options=len(config["qualities"]),
        num_replicates=1,
        adoption_rule=SymmetricAdoptionRule(config["beta"]),
        exploration_rate=config["mu"],
        loss_rate=config["loss_rate"],
        max_query_attempts=config["max_query_attempts"],
        rng=config["seed"] + 1,
    )
    choices = []
    counts = []
    rewards = []
    for _ in range(config["horizon"]):
        reward = environment.sample_batch(1)
        protocol.run_round(reward)
        rewards.append(reward[0])
        choices.append(protocol.choices()[0])
        counts.append(protocol.state().counts[0])
    return _record(
        "protocol_single_replicate",
        config,
        counts,
        rewards,
        extra={
            "choices": np.asarray(choices).tolist(),
            "transport_stats": protocol.transport_stats(),
            "fallback_explorations": protocol.fallback_explorations,
        },
    )


GENERATORS = {
    "sequential": golden_sequential,
    "batched": golden_batched,
    "network": golden_network,
    "network_vectorized": golden_network_vectorized,
    "network_batched": golden_network_batched,
    "protocol_batched": golden_protocol_batched,
}


SERVE_SIZE_RUNS = {
    f"{name}/{dtype}": (generate, {**config, "dtype": dtype})
    for name, generate, config in (
        ("network_batched", golden_network_batched, SERVE_SIZE_NETWORK_CONFIG),
        ("protocol_batched", golden_protocol_batched, SERVE_SIZE_PROTOCOL_CONFIG),
    )
    for dtype in ("float64", "float32")
}
"""Digest-pinned runs: name -> (generator, config)."""

SINGLE_REPLICATE_RUNS = {
    **{
        f"network/{name}": (network_single_replicate, config)
        for name, config in SINGLE_REPLICATE_NETWORK_CONFIGS.items()
    },
    **{
        f"protocol/{name}": (protocol_single_replicate, config)
        for name, config in SINGLE_REPLICATE_PROTOCOL_CONFIGS.items()
    },
}
"""Digest-pinned single-replicate runs: name -> (generator, config)."""


# Per-seed loop-engine rows at the sizes the daemon replays (N <= 40,
# T <= 10): 30 grid points x 100 seeds of ``dynamics_point_replication``,
# each point seeded as a sweep seeds it.  The digest pins the engine's
# per-step bookkeeping draw for draw.
LOOP_ROWS_CONFIG = {
    "points": [
        {"qualities": list(qualities), "N": population, "T": horizon, "beta": beta}
        | ({} if mu is None else {"mu": mu})
        for qualities in ((0.71, 0.42), (0.8, 0.5, 0.45))
        for population in (5, 15, 40)
        for horizon, beta, mu in (
            (5, 0.6, None),
            (8, 0.7, 0.05),
            (10, 0.65, None),
            (6, 0.55, 0.1),
            (7, 0.75, None),
        )
    ],
    "replications": 100,
    "seed": 2024,
}


def loop_engine_rows(config: dict) -> dict:
    """Metric rows of ``dynamics_point_replication`` over every point and seed."""
    rows = [
        dynamics_point_replication(seed, dict(parameters))
        for index, parameters in enumerate(config["points"])
        for seed in seeds_for_replications(
            config["seed"] + index, config["replications"]
        )
    ]
    return {"engine": "loop_rows", "numpy_release": _numpy_release(), "rows": rows}


LOOP_ROWS_RUNS = {"sweep/loop": (loop_engine_rows, LOOP_ROWS_CONFIG)}
"""Digest-pinned loop-engine rows: name -> (generator, config)."""


def record_digest(record: dict) -> str:
    """SHA-256 of a record's canonical JSON (sorted keys, compact separators)."""
    encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def run_digests(runs: dict) -> dict:
    """Digest of every record of ``runs`` (name -> (generator, config)), by name."""
    return {
        name: record_digest(generate(config))
        for name, (generate, config) in runs.items()
    }


def generate_all(directory: Path = GOLDEN_DIR) -> None:
    """Write every golden fixture as pretty-printed JSON under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, generate in GENERATORS.items():
        path = directory / f"{name}.json"
        with path.open("w") as handle:
            json.dump(generate(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        for runs in (SERVE_SIZE_RUNS, SINGLE_REPLICATE_RUNS, LOOP_ROWS_RUNS):
            for name, digest in run_digests(runs).items():
                print(f"{name} {digest}")
    else:
        generate_all()
