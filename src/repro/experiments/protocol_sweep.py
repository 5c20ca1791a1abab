"""Canonical replication functions for the distributed protocol.

These are the workloads behind the ``repro protocol`` CLI and the E10
robustness experiments: the message-passing protocol on Bernoulli qualities
under message loss and crash-stop failures, replicated over seeds (and, via
:func:`~repro.experiments.sweep.run_sweep`, over drop-rate / crash grids).
Two interchangeable execution engines share one parameter convention:

* :func:`protocol_point_replication` — the explicit message-passing loop
  (:class:`~repro.distributed.protocol.DistributedLearningProtocol`, one run
  per seed); the only engine that models per-message *delay*; and
* :func:`protocol_batched_replication` — the replicate-axis engine
  (:class:`~repro.distributed.vectorized.BatchedProtocol`), a
  ``@grid_batched_replication`` function: each point's ``R`` replicates
  advance as one ``(R, N)`` launch.

Parameter convention (per grid point, merged with ``base_parameters``):

``qualities``
    Sequence of option qualities ``eta_j`` (required).
``N``
    Number of devices (required).
``T``
    Number of protocol rounds (required).
``beta``
    Good-signal adoption probability (default 0.6; symmetric ``alpha``).
``mu``
    Exploration rate (default: the theorem maximum via
    :func:`~repro.core.sampling.default_exploration_rate`).
``loss``
    Per-message drop probability (default 0.0).
``delay``
    Per-message one-round delay probability (default 0.0).  Only the loop
    engine models delay; the batched engine raises on ``delay > 0``.
``crash``
    Per-round, per-node crash probability (default 0.0).
``mass_crash_round`` / ``mass_crash_fraction``
    Optional one-off mass failure: the round it happens (default: never) and
    the fraction of surviving nodes it kills (default 0.0).
``max_query_attempts``
    Re-query attempts before falling back to uniform exploration (default 6).
``dtype``
    Optional storage precision (batched engine only; the loop engine refuses
    non-default values) — see :mod:`repro.experiments.engine_options`.

All engines report the same per-replicate metrics — ``regret`` (realised,
the protocol's streaming definition), ``best_option_share`` and
``alive_fraction`` (surviving share at the final round) — and derive their
randomness from the seed lists the harness hands them.  Seeding conventions:
the loop engine uses ``(env=seed, failures=seed+2, transport=seed+3,
protocol=seed+4)`` — matching the E10 benchmark convention — and the batched
engine derives one generator per point from that point's full seed list,
shared by the environment and the dynamics.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.core.adoption import SymmetricAdoptionRule
from repro.core.sampling import default_exploration_rate
from repro.distributed import (
    BatchedProtocol,
    CrashFailureModel,
    DistributedLearningProtocol,
    LossyTransport,
    NoFailures,
)
from repro.environments import BernoulliEnvironment
from repro.experiments.engine_options import engine_dtype, require_default_dtype
from repro.experiments.runner import grid_batched_replication


def _point_parameters(parameters: Dict[str, Any]) -> Dict[str, Any]:
    """Normalise one point's parameters with engine-shared defaults."""
    try:
        qualities = np.asarray(parameters["qualities"], dtype=float)
        num_nodes = int(parameters["N"])
        rounds = int(parameters["T"])
    except KeyError as error:
        raise KeyError(
            f"protocol points need 'qualities', 'N' and 'T'; missing {error}"
        ) from None
    beta = float(parameters.get("beta", 0.6))
    mu = parameters.get("mu")
    if mu is None:
        mu = default_exploration_rate(SymmetricAdoptionRule(beta))
    mass_round = parameters.get("mass_crash_round")
    return {
        "qualities": qualities,
        "N": num_nodes,
        "T": rounds,
        "beta": beta,
        "mu": float(mu),
        "loss": float(parameters.get("loss", 0.0)),
        "delay": float(parameters.get("delay", 0.0)),
        "crash": float(parameters.get("crash", 0.0)),
        "mass_crash_round": None if mass_round is None else int(mass_round),
        "mass_crash_fraction": float(parameters.get("mass_crash_fraction", 0.0)),
        "max_query_attempts": int(parameters.get("max_query_attempts", 6)),
    }


def _failure_model(point: Dict[str, Any], rng) -> CrashFailureModel | NoFailures:
    if (
        point["crash"] > 0
        or (point["mass_crash_round"] is not None and point["mass_crash_fraction"] > 0)
    ):
        return CrashFailureModel(
            per_round_crash_probability=point["crash"],
            mass_failure_round=point["mass_crash_round"],
            mass_failure_fraction=point["mass_crash_fraction"],
            rng=rng,
        )
    return NoFailures()


def protocol_point_replication(
    seed: int, parameters: Dict[str, Any]
) -> Dict[str, float]:
    """Per-seed message-passing loop engine (the ``--engine loop`` reference path)."""
    require_default_dtype(parameters, "loop")
    point = _point_parameters(parameters)
    environment = BernoulliEnvironment(point["qualities"], rng=seed)
    protocol = DistributedLearningProtocol(
        point["N"],
        int(point["qualities"].size),
        adoption_rule=SymmetricAdoptionRule(point["beta"]),
        exploration_rate=point["mu"],
        transport=LossyTransport(
            loss_rate=point["loss"], delay_rate=point["delay"], rng=seed + 3
        ),
        failure_model=_failure_model(point, seed + 2),
        max_query_attempts=point["max_query_attempts"],
        rng=seed + 4,
    )
    result = protocol.run(environment, point["T"])
    return {
        "regret": float(result.regret),
        "best_option_share": float(result.best_option_share),
        "alive_fraction": float(result.alive_series[-1]) / point["N"],
    }


@grid_batched_replication
def protocol_batched_replication(
    seed_blocks: Sequence[Sequence[int]], points: Sequence[Dict[str, Any]]
) -> List[List[Dict[str, float]]]:
    """Each point's replicates as one ``(R, N)`` launch.

    One generator per point, seeded by the point's full seed list, drives
    the reward draws, the loss masks and the crash coins — a point's rows
    depend only on its own seeds and parameters, while individual
    replicates inside it share the stream (the standard batched-engine
    trade-off).
    """
    rows = []
    for seeds, parameters in zip(seed_blocks, points, strict=True):
        point = _point_parameters(parameters)
        if point["delay"] > 0:
            raise ValueError(
                "the batched engine does not model per-message delay "
                f"(delay={point['delay']}); use the loop engine for delayed "
                "transports"
            )
        generator = np.random.default_rng(list(seeds))
        environment = BernoulliEnvironment(point["qualities"], rng=generator)
        protocol = BatchedProtocol(
            point["N"],
            int(point["qualities"].size),
            num_replicates=len(seeds),
            adoption_rule=SymmetricAdoptionRule(point["beta"]),
            exploration_rate=point["mu"],
            loss_rate=point["loss"],
            per_round_crash_probability=point["crash"],
            mass_failure_round=point["mass_crash_round"],
            mass_failure_fraction=point["mass_crash_fraction"],
            max_query_attempts=point["max_query_attempts"],
            rng=generator,
            precision=engine_dtype(parameters),
        )
        result = protocol.run(environment, point["T"])
        alive = result.alive_matrix[-1] / point["N"]
        rows.append(
            [
                {
                    "regret": float(regret),
                    "best_option_share": float(share),
                    "alive_fraction": float(alive_fraction),
                }
                for regret, share, alive_fraction in zip(
                    result.regret(), result.best_option_share(), alive
                )
            ]
        )
    return rows


PROTOCOL_REPLICATIONS = {
    "loop": protocol_point_replication,
    "batched": protocol_batched_replication,
}
"""Engine name -> replication function, for the CLI and sweep wiring."""
