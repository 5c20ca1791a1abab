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
  ``@grid_batched_replication`` function: the replicates a call holds of a
  point advance as one ``(R, N)`` launch.

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
engine gives each replicate its own generator, ``np.random.default_rng([seed])``,
shared by its environment draws, loss masks and crash coins, so every row
is a function of its point and its seed alone and equals the ``R = 1`` run
of that seed.  The runtime therefore plans one task per ``(point, seed)``
for it (``per_seed_rows``).
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
from repro.utils.rng import RowBlockGenerator


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


@grid_batched_replication(per_seed_rows=True)
def protocol_batched_replication(
    seed_blocks: Sequence[Sequence[int]], points: Sequence[Dict[str, Any]]
) -> List[List[Dict[str, float]]]:
    """Each point's replicates as one ``(R, N)`` launch.

    Replicate ``r`` draws its rewards, loss masks and crash coins from
    ``np.random.default_rng([seeds[r]])`` alone (a
    :class:`~repro.utils.rng.RowBlockGenerator` of one-seed blocks) and
    reduces over its own rows, so each row equals the ``R = 1`` run of its
    seed, whichever seeds share its launch.
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
        generator = RowBlockGenerator([[seed] for seed in seeds])
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
        alive = (result.alive_matrix[-1] / point["N"]).tolist()
        point_rows = []
        for row, alive_fraction in enumerate(alive):
            replicate = result.trajectory.rows(row, row + 1)
            (regret,) = replicate.empirical_regret(result.best_quality)
            (share,) = replicate.best_option_share(result.best_option)
            point_rows.append(
                {
                    "regret": float(regret),
                    "best_option_share": float(share),
                    "alive_fraction": alive_fraction,
                }
            )
        rows.append(point_rows)
    return rows


PROTOCOL_REPLICATIONS = {
    "loop": protocol_point_replication,
    "batched": protocol_batched_replication,
}
"""Engine name -> replication function, for the CLI and sweep wiring."""
