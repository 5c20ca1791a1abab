"""Seeded request generators for the four benchmark workloads.

Everything here is a pure function of the workload seed: the same seed gives
byte-identical request sequences (``test_perfbench_generator.py`` checks it),
and the system under test only ever sees the generated payloads.  Payloads
use the ``POST /v1/jobs`` schema; :func:`cli_arguments` turns one into the
equivalent ``repro`` command line, so the CLI and the daemon are driven from
one description.

Work per request is held roughly constant across seeds (fixed population
multisets, horizons scaled to a fixed agent-step budget), so a run's median
latency depends on the system rather than on which seed drew which sizes.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, Iterator, List

Payload = Dict[str, Any]

#: cli-small: (grid point, seed) results every command delivers.
CLI_REPLICATES = 12
#: serve-compute: agent steps (N * T * R) per network/protocol request.
COMPUTE_STEP_BUDGET = 2_200_000
#: serve-compute: population multiset of every grid sweep (6 N x 4 beta).
COMPUTE_POPULATIONS = (60, 80, 100, 120, 160, 200)
#: serve-replay: per-seed task counts of each client's share of the pool.
#: The shares are disjoint (a key in flight twice would make the daemon
#: attach the second submission to the first job) and equal in total.
REPLAY_TASKS = ((500, 1250), (750, 1000))
#: campaign-broker: loop-engine task counts, cycled in a seeded order.
CAMPAIGN_TASKS = (20, 30, 40, 50, 60)


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    # String seeding is stable across processes and Python versions (sha512).
    return random.Random(f"{workload}/{seed}/{stream}")


def _qualities(rng: random.Random, count: int) -> List[float]:
    values = rng.sample(range(20, 96), count)
    return [value / 100 for value in sorted(values, reverse=True)]


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def cli_commands(seed: int) -> List[Payload]:
    """cli-small: four small commands, cycled so every one of them repeats.

    Each delivers :data:`CLI_REPLICATES` results, so the replicate rate does
    not depend on where a window cuts the cycle.
    """
    rng = _rng("cli-small", seed)
    points = rng.choice((2, 3, 4, 6))
    return [
        {
            "kind": "sweep",
            "options": _qualities(rng, rng.choice((2, 3))),
            "populations": sorted(rng.sample(range(100, 1001, 50), points)),
            "horizon": 50,
            "replications": CLI_REPLICATES // points,
            "seed": _seed(rng),
            "engine": "batched",
        },
        {
            "kind": "sweep",
            "options": _qualities(rng, 2),
            "populations": sorted(rng.sample(range(100, 301, 20), 2)),
            "horizon": 30,
            "replications": CLI_REPLICATES // 2,
            "seed": _seed(rng),
            "engine": "loop",
        },
        {
            "kind": "network",
            "options": _qualities(rng, 3),
            "topology": "watts_strogatz",
            "size": rng.randrange(300, 1001, 50),
            "horizon": 40,
            "graph_seed": _seed(rng),
            "replications": CLI_REPLICATES,
            "seed": _seed(rng),
        },
        {
            "kind": "protocol",
            "options": _qualities(rng, 4),
            "nodes": rng.randrange(300, 1001, 50),
            "rounds": 40,
            "loss": round(rng.uniform(0.0, 0.2), 3),
            "crash": round(rng.uniform(0.0, 0.01), 4),
            "replications": CLI_REPLICATES,
            "seed": _seed(rng),
        },
    ]


def compute_requests(seed: int, client: int) -> Iterator[Payload]:
    """serve-compute: never-repeating sweep/network/protocol requests.

    Every request draws fresh qualities and a fresh seed, so every task
    misses the result store.  Clients start the kind cycle at different
    offsets so the daemon always sees a mix.
    """
    rng = _rng("serve-compute", seed, f"client-{client}")
    for index in itertools.count():
        kind = ("sweep", "network", "protocol")[(index + client) % 3]
        if kind == "sweep":
            populations = list(COMPUTE_POPULATIONS)
            rng.shuffle(populations)
            yield {
                "kind": "sweep",
                "options": _qualities(rng, 3),
                "populations": populations,
                "betas": sorted(round(rng.uniform(0.5, 0.9), 3) for _ in range(4)),
                "horizon": 300,
                "replications": 20,
                "seed": _seed(rng),
                "engine": "batched",
            }
        elif kind == "network":
            size = rng.randrange(2000, 5001, 100)
            yield {
                "kind": "network",
                "options": _qualities(rng, 3),
                "topology": "watts_strogatz",
                "size": size,
                "horizon": max(1, round(COMPUTE_STEP_BUDGET / (size * 8))),
                "graph_seed": _seed(rng),
                "replications": 8,
                "seed": _seed(rng),
            }
        else:
            nodes = rng.randrange(2000, 5001, 100)
            yield {
                "kind": "protocol",
                "options": _qualities(rng, 4),
                "nodes": nodes,
                "rounds": max(1, round(COMPUTE_STEP_BUDGET / (nodes * 8))),
                "loss": round(rng.uniform(0.0, 0.2), 3),
                "crash": round(rng.uniform(0.0, 0.002), 5),
                "replications": 8,
                "seed": _seed(rng),
            }


def replay_pool(seed: int) -> List[Payload]:
    """serve-replay: loop-engine sweeps of 500-1250 per-seed tasks each.

    Client ``c`` replays ``pool[c::2]``.  N and T are tiny so that
    populating the store is dominated by writes.
    """
    rng = _rng("serve-replay", seed)
    shares = [rng.sample(share, len(share)) for share in REPLAY_TASKS]
    sizes = [share[index] for index in range(2) for share in shares]
    return [
        {
            "kind": "sweep",
            "options": _qualities(rng, 2),
            "populations": sorted(rng.sample(range(10, 41), 4)),
            "horizon": rng.randint(5, 10),
            "replications": tasks // 4,
            "seed": _seed(rng),
            "engine": "loop",
        }
        for tasks in sizes
    ]


def campaign_specs(seed: int) -> Iterator[Payload]:
    """campaign-broker: simulate -> analyse -> report campaigns.

    Two loop-engine simulate nodes share each campaign's 20-60 tasks
    (five replicates per grid point), one analyse node pools them and one
    report node collates the analysis.  Tasks are tiny (N <= 20, T = 5) so
    that framing and scheduling, not the engine, take the time.
    """
    rng = _rng("campaign-broker", seed)
    for index in itertools.count():
        if index % len(CAMPAIGN_TASKS) == 0:
            order = list(CAMPAIGN_TASKS)
            rng.shuffle(order)
        points = order[index % len(CAMPAIGN_TASKS)] // 10
        simulate = [
            {
                "id": f"simulate-{node}",
                "kind": "simulate",
                "request": {
                    "kind": "sweep",
                    "options": _qualities(rng, 2),
                    "populations": sorted(rng.sample(range(5, 21), points)),
                    "horizon": 5,
                    "replications": 5,
                    "seed": _seed(rng),
                    "engine": "loop",
                },
            }
            for node in range(2)
        ]
        yield {
            "name": f"bench-{index}",
            "nodes": simulate
            + [
                {
                    "id": "analyse",
                    "kind": "analyse",
                    "inputs": [node["id"] for node in simulate],
                    "metrics": ["regret", "best_option_share"],
                },
                {"id": "report", "kind": "report", "inputs": ["analyse"]},
            ],
        }


def path_check_request(seed: int) -> Payload:
    """The multi-point batched sweep whose rows plain CLI and daemon should share."""
    rng = _rng("path-check", seed)
    return {
        "kind": "sweep",
        "options": _qualities(rng, 2),
        "populations": sorted(rng.sample(range(100, 501, 50), 2)),
        "horizon": 30,
        "replications": 4,
        "seed": _seed(rng),
        "engine": "batched",
    }


_FLAGS = {
    "options": "--options",
    "populations": "--populations",
    "betas": "--betas",
    "horizon": "--horizon",
    "replications": "--replications",
    "seed": "--seed",
    "engine": "--engine",
    "topology": "--topology",
    "size": "--size",
    "graph_seed": "--graph-seed",
    "nodes": "--nodes",
    "rounds": "--rounds",
    "loss": "--loss",
    "crash": "--crash",
}


def cli_arguments(payload: Payload) -> List[str]:
    """The ``repro`` command line equivalent to a job payload."""
    arguments = [payload["kind"]]
    for name, value in payload.items():
        if name == "kind":
            continue
        arguments.append(_FLAGS[name])
        values = value if isinstance(value, list) else [value]
        arguments.extend(str(item) for item in values)
    return arguments


def replicates(payload: Payload) -> int:
    """Delivered (grid point, seed) results of one request."""
    return grid_points(payload) * int(payload["replications"])


def grid_points(payload: Payload) -> int:
    """Result rows a sweep returns (1 grid point for network/protocol)."""
    if payload["kind"] != "sweep":
        return 1
    return len(payload["populations"]) * len(payload.get("betas") or [None])
