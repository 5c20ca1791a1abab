"""Canonical replication functions for the network-restricted dynamics.

These are the workloads behind the ``repro network`` CLI and the E9 topology
experiments: the neighbourhood-restricted dynamics on Bernoulli qualities,
replicated over seeds (and, via :func:`~repro.experiments.sweep.run_sweep`,
over topology/parameter grids).  Two interchangeable execution engines
share one parameter convention:

* :func:`network_point_replication` — the per-agent reference loop
  (:class:`~repro.network.dynamics.NetworkDynamics`, one run per seed); and
* :func:`network_batched_replication` — the replicate-axis engine
  (:class:`~repro.network.vectorized.BatchedNetworkDynamics`), a
  ``@grid_batched_replication`` function: the replicates a call holds of a
  point advance as one ``(R, N)`` choices matrix on a single shared graph.

Parameter convention (per grid point, merged with ``base_parameters``):

``qualities``
    Sequence of option qualities ``eta_j`` (required).
``topology``
    Topology family name (required): one of ``complete``, ``ring``, ``grid``,
    ``star``, ``erdos_renyi``, ``barabasi_albert``, ``watts_strogatz``.
``N``
    Number of individuals (required).  ``grid`` uses the nearest
    ``side x side`` square with ``side = round(sqrt(N))``.
``T``
    Horizon (required).
``beta``
    Good-signal adoption probability (default 0.6; symmetric ``alpha``).
``mu``
    Exploration rate (default: the theorem maximum via
    :func:`~repro.core.sampling.default_exploration_rate`).
``graph_seed``
    Seed for the random topology families (default 0) — the graph is part of
    the experiment configuration, so every replicate (and every engine)
    simulates on the *same* graph.
``ring_k`` / ``er_p`` / ``ba_m`` / ``ws_k`` / ``ws_p``
    Optional topology-family parameters (ring half-width, Erdős–Rényi edge
    probability, Barabási–Albert attachments, Watts–Strogatz neighbours and
    rewiring probability); defaults match ``SocialNetwork.standard_suite``.
``dtype``
    Optional storage precision (batched engine only; the loop engine refuses
    non-default values) — see :mod:`repro.experiments.engine_options`.

All engines report the same per-replicate metrics — ``regret`` and
``best_option_share`` — and derive their randomness from the seed lists the
harness hands them, so results are reproducible from the config alone on any
engine.  Seeding conventions: the loop engine uses the repository's
``(env=seed, dynamics=seed+1)`` convention; the batched engine gives each
replicate its own generator, ``np.random.default_rng([seed])``, shared by
its environment draws and its dynamics, so every row is a function of its
point and its seed alone and equals the ``R = 1`` run of that seed.  The
runtime therefore plans one task per ``(point, seed)`` for it
(``per_seed_rows``), as it does for the loop engine.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.adoption import SymmetricAdoptionRule
from repro.core.regret import best_option_share, expected_regret
from repro.core.sampling import default_exploration_rate
from repro.environments import BernoulliEnvironment
from repro.experiments.engine_options import engine_dtype, require_default_dtype
from repro.experiments.runner import grid_batched_replication
from repro.network.dynamics import NetworkDynamics
from repro.network.topology import SocialNetwork
from repro.network.vectorized import BatchedNetworkDynamics
from repro.utils.rng import RowBlockGenerator


@lru_cache(maxsize=8)
def _cached_network(
    topology: str,
    size: int,
    graph_seed: int,
    ring_k: int,
    er_p: float,
    ba_m: int,
    ws_k: int,
    ws_p: float,
) -> SocialNetwork:
    if topology == "complete":
        return SocialNetwork.complete(size)
    if topology == "ring":
        return SocialNetwork.ring(size, neighbors_each_side=ring_k)
    if topology == "grid":
        side = max(2, int(round(np.sqrt(size))))
        return SocialNetwork.grid(side, side)
    if topology == "star":
        return SocialNetwork.star(size)
    if topology == "erdos_renyi":
        return SocialNetwork.erdos_renyi(size, er_p, rng=graph_seed)
    if topology == "barabasi_albert":
        return SocialNetwork.barabasi_albert(size, attachments=ba_m, rng=graph_seed)
    if topology == "watts_strogatz":
        return SocialNetwork.watts_strogatz(
            size, nearest_neighbors=ws_k, rewiring_probability=ws_p, rng=graph_seed
        )
    raise ValueError(
        f"unknown topology {topology!r}; expected one of complete, ring, grid, "
        "star, erdos_renyi, barabasi_albert, watts_strogatz"
    )


def build_network(parameters: Dict[str, Any]) -> SocialNetwork:
    """Construct the :class:`SocialNetwork` a parameter dict describes.

    Deterministic: random families are seeded from ``graph_seed`` (default
    0), so every replicate and every engine sees the same graph.  Recently
    built graphs are cached (keyed on every topology-relevant parameter), so
    the per-seed loop engine does not pay graph construction — networkx
    build plus the CSR cache — once per replicate; treat the returned
    network as read-only shared state.
    """
    try:
        topology = str(parameters["topology"])
        size = int(parameters["N"])
    except KeyError as error:
        raise KeyError(
            f"network points need 'topology' and 'N'; missing {error}"
        ) from None
    return _cached_network(
        topology,
        size,
        int(parameters.get("graph_seed", 0)),
        int(parameters.get("ring_k", 2)),
        float(parameters.get("er_p", min(1.0, 8.0 / size))),
        int(parameters.get("ba_m", 3)),
        int(parameters.get("ws_k", 6)),
        float(parameters.get("ws_p", 0.1)),
    )


def _point_parameters(
    parameters: Dict[str, Any],
) -> Tuple[np.ndarray, int, float, float]:
    """Extract one point's ``(qualities, T, beta, mu)`` with engine-shared defaults."""
    try:
        qualities = np.asarray(parameters["qualities"], dtype=float)
        horizon = int(parameters["T"])
    except KeyError as error:
        raise KeyError(
            f"network points need 'qualities' and 'T'; missing {error}"
        ) from None
    beta = float(parameters.get("beta", 0.6))
    mu = parameters.get("mu")
    if mu is None:
        mu = default_exploration_rate(SymmetricAdoptionRule(beta))
    return qualities, horizon, beta, float(mu)


def network_point_replication(
    seed: int, parameters: Dict[str, Any]
) -> Dict[str, float]:
    """Per-seed loop engine (the ``--engine loop`` reference path)."""
    require_default_dtype(parameters, "loop")
    qualities, horizon, beta, mu = _point_parameters(parameters)
    dynamics = NetworkDynamics(
        network=build_network(parameters),
        num_options=int(qualities.size),
        adoption_rule=SymmetricAdoptionRule(beta),
        exploration_rate=mu,
        rng=seed + 1,
    )
    trajectory = dynamics.run(BernoulliEnvironment(qualities, rng=seed), horizon)
    matrix = trajectory.popularity_matrix()
    return {
        "regret": float(expected_regret(matrix, qualities)),
        "best_option_share": float(best_option_share(matrix, int(qualities.argmax()))),
    }


@grid_batched_replication(per_seed_rows=True)
def network_batched_replication(
    seed_blocks: Sequence[Sequence[int]], points: Sequence[Dict[str, Any]]
) -> List[List[Dict[str, float]]]:
    """Each point's replicates as one ``(R, N)`` launch on its shared graph.

    Replicate ``r`` draws its rewards and its dynamics from
    ``np.random.default_rng([seeds[r]])`` alone (a
    :class:`~repro.utils.rng.RowBlockGenerator` of one-seed blocks) and
    reduces over its own rows, so each row equals the ``R = 1`` run of its
    seed, whichever seeds share its launch.
    """
    rows = []
    for seeds, parameters in zip(seed_blocks, points, strict=True):
        qualities, horizon, beta, mu = _point_parameters(parameters)
        generator = RowBlockGenerator([[seed] for seed in seeds])
        environment = BernoulliEnvironment(qualities, rng=generator)
        dynamics = BatchedNetworkDynamics(
            network=build_network(parameters),
            num_options=int(qualities.size),
            num_replicates=len(seeds),
            adoption_rule=SymmetricAdoptionRule(beta),
            exploration_rate=mu,
            rng=generator,
            precision=engine_dtype(parameters),
        )
        trajectory = dynamics.run(environment, horizon)
        best = int(qualities.argmax())
        point_rows = []
        for row in range(len(seeds)):
            replicate = trajectory.rows(row, row + 1)
            (regret,) = replicate.expected_regret(qualities)
            (share,) = replicate.best_option_share(best)
            point_rows.append(
                {"regret": float(regret), "best_option_share": float(share)}
            )
        rows.append(point_rows)
    return rows


NETWORK_REPLICATIONS = {
    "loop": network_point_replication,
    "batched": network_batched_replication,
}
"""Engine name -> replication function, for the CLI and sweep wiring."""
