"""Round-driven orchestration of the distributed learning protocol.

One protocol round implements exactly one step of the paper's dynamics, but
with the sampling stage realised through explicit message passing over a
possibly unreliable transport:

1. crash injection (per the :class:`~repro.distributed.failures.FailureModel`);
2. every alive node either explores (probability ``mu``) or sends a
   :class:`ChoiceQuery` to one uniformly random alive peer;
3. queries that arrive this round are answered with :class:`ChoiceReply`
   messages carrying the peer's previous-round option;
4. replies that arrive are recorded; a node whose peer reported "sitting out"
   retries with another random peer (up to ``max_query_attempts`` sub-rounds —
   this realises the paper's sampling, which is proportional to popularity
   *among committed individuals*); nodes whose query or reply was lost,
   delayed past the round, or never found a committed peer fall back to
   uniform exploration, so the protocol is never blocked by communication
   failures;
5. the environment draws the round's quality signals ``R^t``; every node with
   a considered option observes that option's signal locally and runs the
   adopt step.

The group-level popularity (over alive, committed nodes) is recorded before
each round so the standard regret definitions apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.adoption import AdoptionRule, SymmetricAdoptionRule
from repro.core.regret import RegretAccumulator
from repro.distributed.failures import FailureModel, NoFailures
from repro.distributed.messages import ChoiceQuery, ChoiceReply
from repro.distributed.node import ProtocolNode
from repro.distributed.transport import LossyTransport
from repro.environments.base import RewardEnvironment
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


@dataclass
class ProtocolResult:
    """Outcome of a full protocol run.

    Attributes
    ----------
    popularity_matrix:
        ``(rounds, m)`` matrix of pre-round popularity among alive committed
        nodes.
    reward_matrix:
        ``(rounds, m)`` matrix of the quality signals drawn each round.
    regret:
        Average regret over the run (same definition as ``Regret_N(T)``).
    best_option_share:
        Average pre-round popularity of the environment's best option.
    alive_series:
        Number of alive nodes at the start of each round.
    transport_stats:
        Message counters from the transport layer.
    fallback_explorations:
        Number of node-rounds that fell back to uniform exploration because a
        query or reply was lost or late.
    """

    popularity_matrix: np.ndarray
    reward_matrix: np.ndarray
    regret: float
    best_option_share: float
    alive_series: np.ndarray
    transport_stats: Dict[str, int]
    fallback_explorations: int

    @property
    def rounds(self) -> int:
        """Number of protocol rounds executed."""
        return int(self.popularity_matrix.shape[0])


class DistributedLearningProtocol:
    """Simulator of the protocol over ``N`` message-passing nodes.

    The reference engine: one Python object per node and per message, and
    the only engine that models per-message *delay*.
    :class:`~repro.distributed.vectorized.BatchedProtocol` simulates the same
    round law under loss and crashes for ``R`` replicates at array speed
    (``R = 1`` runs a single replicate from its own seed).

    Parameters
    ----------
    num_nodes:
        Number of devices ``N``.
    num_options:
        Number of options ``m``.
    adoption_rule:
        Shared adoption rule (per-node rules are supported by passing a list
        to :meth:`with_nodes`).
    exploration_rate:
        The probability ``mu`` of deliberate uniform exploration.
    transport:
        Message transport; defaults to a perfect (lossless, no-delay) one.
    failure_model:
        Crash injection model; defaults to no failures.
    max_query_attempts:
        How many times a node re-queries (with a fresh random peer) when the
        previous peer reported sitting out or the exchange was lost, before
        falling back to uniform exploration.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        num_nodes: int,
        num_options: int,
        adoption_rule: Optional[AdoptionRule] = None,
        exploration_rate: float = 0.05,
        transport: Optional[LossyTransport] = None,
        failure_model: Optional[FailureModel] = None,
        max_query_attempts: int = 6,
        rng: RngLike = None,
    ) -> None:
        num_nodes = check_positive_int(num_nodes, "num_nodes")
        self._num_options = check_positive_int(num_options, "num_options")
        self._mu = check_probability(exploration_rate, "exploration_rate")
        self._rng = ensure_rng(rng)
        self._round = 0
        self._fallback_explorations = 0
        adoption_rule = adoption_rule or SymmetricAdoptionRule(0.6)
        self._nodes = [
            ProtocolNode(
                node_id=node_id,
                num_options=num_options,
                adoption_rule=adoption_rule,
                initial_option=int(self._rng.integers(num_options)),
            )
            for node_id in range(num_nodes)
        ]
        self._transport = transport or LossyTransport(rng=self._rng)
        self._failure_model = failure_model or NoFailures()
        self._max_query_attempts = check_positive_int(
            max_query_attempts, "max_query_attempts"
        )

    # ------------------------------------------------------------ properties
    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return self._num_options

    @property
    def exploration_rate(self) -> float:
        """The exploration probability ``mu``."""
        return self._mu

    @property
    def round_number(self) -> int:
        """Rounds executed so far."""
        return self._round

    @property
    def fallback_explorations(self) -> int:
        """Node-rounds that fell back to uniform exploration so far."""
        return self._fallback_explorations

    @property
    def nodes(self) -> List[ProtocolNode]:
        """The simulated devices."""
        return self._nodes

    @property
    def transport(self) -> LossyTransport:
        """The transport layer."""
        return self._transport

    def alive_nodes(self) -> List[ProtocolNode]:
        """Nodes that have not crashed."""
        return [node for node in self._nodes if not node.crashed]

    def num_alive(self) -> int:
        """Number of nodes that have not crashed."""
        return len(self.alive_nodes())

    def transport_stats(self) -> Dict[str, int]:
        """Message counters from the transport layer."""
        return self._transport.stats.as_dict()

    def popularity(self) -> np.ndarray:
        """Popularity among alive committed nodes (uniform when none committed)."""
        counts = np.zeros(self._num_options, dtype=np.int64)
        for node in self._nodes:
            if not node.crashed and node.current_option is not None:
                counts[node.current_option] += 1
        total = counts.sum()
        if total == 0:
            return np.full(self._num_options, 1.0 / self._num_options)
        return counts / total

    # ---------------------------------------------------------------- driver
    def run(self, environment: RewardEnvironment, rounds: int) -> ProtocolResult:
        """Run the protocol for ``rounds`` rounds against ``environment``."""
        rounds = check_positive_int(rounds, "rounds")
        if environment.num_options != self._num_options:
            raise ValueError(
                "environment and protocol disagree on the number of options"
            )
        best_option = environment.best_option
        accumulator = RegretAccumulator(best_quality=environment.best_quality)
        popularity_rows = []
        reward_rows = []
        alive_series = []
        for _ in range(rounds):
            popularity = self.popularity()
            rewards = environment.sample()
            alive_series.append(self.num_alive())
            self.run_round(rewards)
            accumulator.update(popularity, rewards)
            popularity_rows.append(popularity)
            reward_rows.append(rewards)
        popularity_matrix = np.stack(popularity_rows)
        return ProtocolResult(
            popularity_matrix=popularity_matrix,
            reward_matrix=np.stack(reward_rows),
            regret=accumulator.regret(),
            best_option_share=float(popularity_matrix[:, best_option].mean()),
            alive_series=np.asarray(alive_series, dtype=np.int64),
            transport_stats=self.transport_stats(),
            fallback_explorations=self._fallback_explorations,
        )

    # ----------------------------------------------------------------- round
    def run_round(self, rewards: np.ndarray) -> None:
        """Execute one protocol round with the given quality signals."""
        rewards = np.asarray(rewards)
        if rewards.shape != (self._num_options,):
            raise ValueError(
                f"rewards must have shape ({self._num_options},), got {rewards.shape}"
            )

        # 1. Crash injection.
        alive_ids = [node.node_id for node in self.alive_nodes()]
        for node_id in self._failure_model.crashes_for_round(self._round, alive_ids):
            self._nodes[node_id].crash()

        alive = self.alive_nodes()
        alive_ids = [node.node_id for node in alive]
        if not alive_ids:
            self._round += 1
            return

        # 2. Sampling stage: a mu-fraction explores locally; the rest query a
        #    random alive peer, retrying with fresh peers when the peer turned
        #    out to be sitting out or the exchange was lost.
        explorers = []
        awaiting_reply: set[int] = set()
        for node in alive:
            if self._rng.random() < self._mu or len(alive_ids) == 1:
                explorers.append(node)
            else:
                awaiting_reply.add(node.node_id)
        for node in explorers:
            node.explore(self._rng)

        for _ in range(self._max_query_attempts):
            if not awaiting_reply:
                break
            # 3a. Send one query per still-unsatisfied node.
            for node_id in awaiting_reply:
                peer = node_id
                while peer == node_id:
                    peer = alive_ids[int(self._rng.integers(len(alive_ids)))]
                self._transport.send(self._nodes[node_id].make_query(peer, self._round))
            # 3b. Deliver queries and send replies.
            for message in self._transport.deliver(self._round):
                if isinstance(message, ChoiceQuery):
                    reply = self._nodes[message.recipient].handle_query(message)
                    if reply is not None:
                        self._transport.send(reply)
            # 3c. Deliver replies; satisfied nodes leave the waiting set.
            for message in self._transport.deliver(self._round):
                if (
                    isinstance(message, ChoiceReply)
                    and message.recipient in awaiting_reply
                ):
                    if self._nodes[message.recipient].handle_reply(message, self._rng):
                        awaiting_reply.discard(message.recipient)

        # 4. Nodes that never heard back from a committed peer fall back to
        #    uniform exploration so communication failures cannot stall them.
        for node_id in awaiting_reply:
            node = self._nodes[node_id]
            if not node.crashed:
                node.explore(self._rng)
                self._fallback_explorations += 1

        # 5. Adoption stage: every alive node observes its considered option's
        #    fresh signal locally and decides.
        for node in self.alive_nodes():
            if node.considered_option is not None:
                node.adopt_step(int(rewards[node.considered_option]), self._rng)

        self._round += 1
