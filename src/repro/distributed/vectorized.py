"""Replicate-axis engine for the distributed-protocol simulation.

The message-passing loop (:class:`~repro.distributed.protocol.DistributedLearningProtocol`)
advances one node and one :class:`~repro.distributed.messages.Message` object
at a time in Python, which makes the lossy-round experiments (E10) orders of
magnitude slower than every other engine in this repository.
:class:`BatchedProtocol` simulates the *same round law* as array operations:
``R`` independent fleets advance as ``(R, N)`` choice/alive matrices per
round — uniform peer sampling is one rank-shifted integer draw per querying
node, query and reply loss are independent Bernoulli masks, crash-stop
failures are a boolean ``alive`` mask threaded through every step, and the
adopt step is one broadcast thinning — recording
:class:`~repro.core.batched.BatchedPopulationState` snapshots into a
:class:`~repro.core.batched.BatchedTrajectory`, so a loss-rate x
crash-fraction grid collapses into a few launches.  ``R = 1`` runs a single
replicate from its own seed, and a one-seed-per-row
:class:`~repro.utils.rng.RowBlockGenerator` makes every row of a larger
launch that run of its seed.

Per round (identical to the loop's law):

1. crash injection;
2. every alive node explores with probability ``mu`` (always, when it is the
   only survivor); the rest query one uniformly random alive peer;
3. a query is dropped with probability ``loss_rate``; a delivered query is
   answered with the peer's previous-round option and the reply is dropped
   independently with probability ``loss_rate``; a node whose exchange was
   lost or whose peer was sitting out retries with a fresh random peer, up to
   ``max_query_attempts`` sub-rounds;
4. nodes that never heard back from a committed peer fall back to uniform
   exploration;
5. every alive node observes its considered option's fresh signal and runs
   the adopt step.

What the engine does **not** model is per-message *delay*
(``delay_rate`` of :class:`~repro.distributed.transport.LossyTransport`):
a delayed message changes which round a reply lands in, which is inherently
sequential bookkeeping — use the loop engine when delay matters.  Under pure
loss the delivered-message law is identical, so the engines are
distributionally equivalent (KS / chi-squared cross-validated in
``tests/integration/test_cross_validation.py``, with bit-exact golden
fixtures pinning the batched engine).  The engines consume the random stream
differently, so equal seeds give different trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.backends import PrecisionLike, resolve_precision
from repro.core.adoption import AdoptionRule, SymmetricAdoptionRule
from repro.core.batched import (
    BatchedPopulationState,
    BatchedTrajectory,
    choice_counts,
    row_lookup,
)
from repro.distributed.transport import TransportStats
from repro.environments.base import RewardEnvironment
from repro.utils.rng import RngLike, RowBlockGenerator
from repro.utils.validation import (
    check_non_negative_int,
    check_positive_int,
    check_probability,
)


@dataclass
class BatchedProtocolResult:
    """Outcome of a full :class:`BatchedProtocol` run.

    Attributes
    ----------
    trajectory:
        The recorded :class:`~repro.core.batched.BatchedTrajectory` —
        pre-round popularities and per-round rewards with shapes ``(T, R, m)``
        and states whose counts are the per-replicate alive-committed
        histograms.
    alive_matrix:
        ``(T, R)`` number of alive nodes at the start of each round.
    transport_stats:
        Message counters aggregated over all replicates.
    fallback_explorations:
        Node-rounds (summed over replicates) that fell back to uniform
        exploration.
    best_option:
        Index of the environment's best option.
    best_quality:
        ``eta_1``, the benchmark quality for regret.
    """

    trajectory: BatchedTrajectory
    alive_matrix: np.ndarray
    transport_stats: Dict[str, int]
    fallback_explorations: int
    best_option: int
    best_quality: float

    @property
    def rounds(self) -> int:
        """Number of protocol rounds executed."""
        return self.trajectory.horizon

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R``."""
        return self.trajectory.num_replicates

    def regret(self) -> np.ndarray:
        """Per-replicate realised average regret, shape ``(R,)``.

        Same definition as :attr:`~repro.distributed.protocol.ProtocolResult.regret`:
        ``eta_1 - (1/T) sum_t <Q^{t-1}, R^t>`` with realised rewards.
        """
        return self.trajectory.empirical_regret(self.best_quality)

    def best_option_share(self) -> np.ndarray:
        """Per-replicate average pre-round popularity of the best option, shape ``(R,)``."""
        return self.trajectory.best_option_share(self.best_option)


class BatchedProtocol:
    """Replicate-axis vectorised simulator of the distributed protocol.

    Advances ``R`` statistically independent fleets in lock-step as
    ``(R, N)`` choice and alive matrices: per round, one ``(R, N)`` explore
    draw, then — over the compressed set of still-waiting alive cells, as
    flat indices — a rank-shifted uniform peer draw and two Bernoulli loss masks
    per retry sub-round, and finally one broadcast adoption thinning.  A plain
    generator (or seed) drives every replicate, so a batch is reproducible
    from a single seed but its replicates are not independently re-runnable.
    A :class:`~repro.utils.rng.RowBlockGenerator` of one-seed blocks gives
    each replicate its own generator instead, and then row ``r`` is the
    ``num_replicates=1`` run of its seed: every draw, the flat ones too,
    takes each row's cells from that row's generator, in row order.

    Crash-stop failures mirror
    :class:`~repro.distributed.failures.CrashFailureModel` with the
    replicate axis built in: an independent per-round crash coin per alive
    node, plus an optional one-off mass failure killing a fraction of each
    replicate's surviving nodes at a scheduled round.

    Parameters
    ----------
    num_nodes:
        Number of devices ``N`` per replicate.
    num_options:
        Number of options ``m``.
    num_replicates:
        Number of independent replicates ``R``.
    adoption_rule:
        Shared adoption rule; defaults to the symmetric rule with ``beta = 0.6``.
    exploration_rate:
        The probability ``mu`` of deliberate uniform exploration.
    loss_rate:
        Per-message drop probability (queries and replies independently).
    per_round_crash_probability:
        Probability that each alive node crashes at the start of any round.
    mass_failure_round:
        Round at which a mass failure occurs (``None`` disables it).
    mass_failure_fraction:
        Fraction of each replicate's currently-alive nodes killed then.
    max_query_attempts:
        Re-query attempts before falling back to uniform exploration.
    rng:
        Seed, generator or :class:`~repro.utils.rng.RowBlockGenerator`.
    precision:
        Storage precision (default float64/int64).  Random draws always run
        in float64, so the stored-state dtype does not perturb the stream.
    """

    def __init__(
        self,
        num_nodes: int,
        num_options: int,
        num_replicates: int,
        adoption_rule: Optional[AdoptionRule] = None,
        exploration_rate: float = 0.05,
        loss_rate: float = 0.0,
        per_round_crash_probability: float = 0.0,
        mass_failure_round: Optional[int] = None,
        mass_failure_fraction: float = 0.0,
        max_query_attempts: int = 6,
        rng: RngLike = None,
        precision: PrecisionLike = None,
    ) -> None:
        self._num_nodes = check_positive_int(num_nodes, "num_nodes")
        self._num_options = check_positive_int(num_options, "num_options")
        self._num_replicates = check_positive_int(num_replicates, "num_replicates")
        self._adoption_rule = adoption_rule or SymmetricAdoptionRule(0.6)
        self._mu = check_probability(exploration_rate, "exploration_rate")
        self._loss_rate = check_probability(loss_rate, "loss_rate")
        self._per_round_crash = check_probability(
            per_round_crash_probability, "per_round_crash_probability"
        )
        if mass_failure_round is not None:
            mass_failure_round = check_non_negative_int(
                mass_failure_round, "mass_failure_round"
            )
        self._mass_failure_round = mass_failure_round
        self._mass_failure_fraction = check_probability(
            mass_failure_fraction, "mass_failure_fraction"
        )
        self._max_query_attempts = check_positive_int(
            max_query_attempts, "max_query_attempts"
        )
        self._precision = resolve_precision(precision)
        self._precision.check_count_value(int(num_nodes), "num_nodes")
        self._rng = RowBlockGenerator.of(rng, num_replicates)
        self._round = 0
        self._fallback_explorations = 0
        self._stats = TransportStats()
        shape = (num_replicates, num_nodes)
        self._choices = self._rng.integers(num_options, size=shape).astype(
            self._precision.int_dtype
        )
        self._alive = np.ones(shape, dtype=bool)

    # ------------------------------------------------------------ properties
    @property
    def num_nodes(self) -> int:
        """Number of devices ``N`` per replicate."""
        return self._num_nodes

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return self._num_options

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R``."""
        return self._num_replicates

    @property
    def round_number(self) -> int:
        """Rounds executed so far."""
        return self._round

    @property
    def fallback_explorations(self) -> int:
        """Node-rounds that fell back to uniform exploration, over all replicates."""
        return self._fallback_explorations

    @property
    def precision(self):
        """The storage :class:`~repro.backends.Precision` of the protocol."""
        return self._precision

    def choices(self) -> np.ndarray:
        """Per-replicate, per-node current options, shape ``(R, N)``; copy.

        Crashed nodes retain their last committed option here — mask with
        :meth:`alive` (as :meth:`state` does) before counting.
        """
        return self._choices.copy()

    def alive(self) -> np.ndarray:
        """Boolean alive masks, shape ``(R, N)``; copy."""
        return self._alive.copy()

    def alive_counts(self) -> np.ndarray:
        """Per-replicate number of alive nodes, shape ``(R,)``."""
        return self._alive.sum(axis=1)

    def transport_stats(self) -> Dict[str, int]:
        """Message counters aggregated over all replicates."""
        return self._stats.as_dict()

    def state(self) -> BatchedPopulationState:
        """Per-replicate alive-committed counts as a batched state."""
        alive_choices = np.where(self._alive, self._choices, -1)
        counts = choice_counts(alive_choices, self._num_options)
        return BatchedPopulationState(
            counts=counts.astype(self._precision.int_dtype),
            population_size=self._num_nodes,
            time=self._round,
        )

    def popularity(self) -> np.ndarray:
        """Per-replicate popularity among alive committed nodes, shape ``(R, m)``."""
        return self.state().popularity()

    # --------------------------------------------------------------- crashes
    def _inject_crashes(self) -> None:
        if self._per_round_crash > 0:
            coins = self._rng.random(self._alive.shape) < self._per_round_crash
            self._alive &= ~coins
        if (
            self._mass_failure_round is not None
            and self._round == self._mass_failure_round
            and self._mass_failure_fraction > 0
        ):
            alive_counts = self._alive.sum(axis=1)
            victims = np.rint(self._mass_failure_fraction * alive_counts).astype(
                np.int64
            )
            # Kill the `victims[r]` alive nodes with the smallest random keys
            # in each row — a uniformly random subset of the survivors.
            keys = self._rng.random(self._alive.shape)
            keys[~self._alive] = np.inf
            order = np.argsort(keys, axis=1)
            kill_sorted = np.arange(self._num_nodes)[None, :] < victims[:, None]
            kill = np.zeros_like(self._alive)
            np.put_along_axis(kill, order, kill_sorted, axis=1)
            self._alive &= ~kill

    # ----------------------------------------------------------------- round
    def run_round(self, rewards: np.ndarray) -> None:
        """Advance every replicate one round given the rewards ``R^t``.

        ``rewards`` is an ``(R, m)`` matrix of per-replicate binary reward
        realisations, or a single ``(m,)`` vector shared by all replicates.
        """
        rewards = np.asarray(rewards)
        if rewards.shape == (self._num_options,):
            rewards = np.broadcast_to(
                rewards, (self._num_replicates, self._num_options)
            )
        elif rewards.shape != (self._num_replicates, self._num_options):
            raise ValueError(
                f"rewards must have shape ({self._num_replicates}, "
                f"{self._num_options}) or ({self._num_options},), got {rewards.shape}"
            )
        if np.any((rewards != 0) & (rewards != 1)):
            raise ValueError("rewards must be binary")

        # 1. Crash injection.
        self._inject_crashes()
        alive_counts = self._alive.sum(axis=1)  # (R,)
        shape = self._alive.shape

        # 2. Sampling stage over the whole (R, N) grid at once.  Lone
        #    survivors always explore (no peer to query).
        explore = self._alive & (
            (self._rng.random(shape) < self._mu) | (alive_counts[:, None] <= 1)
        )
        considered = np.full(shape, -1, dtype=np.int64)
        considered[explore] = self._rng.run_integers(
            self._num_options, np.cumsum(explore.sum(axis=1)).tolist()
        )

        # The retry sub-rounds work on flat cell indices.  `alive_cells`
        # lists every alive cell in row-major order, so row r's alive nodes
        # are its slice up to `alive_ends[r]`, and a node's position in it,
        # less its row's start, is its rank among the row's alive nodes.
        # Each waiting node is tracked by that position; the waiting set
        # shrinks geometrically, so later attempts touch a few percent of
        # the grid, not all of it.  It stays sorted, so each row's waiting
        # nodes are one run of it, and every draw over them is drawn row by
        # row from that row's generator.
        alive_cells = np.flatnonzero(self._alive)
        alive_ends = np.cumsum(alive_counts)
        row_start = np.repeat(alive_ends - alive_counts, alive_counts)
        peer_high = np.maximum(alive_counts - 1, 1).tolist()
        waiting = np.flatnonzero(~explore.ravel()[alive_cells])
        flat_choices = self._choices.ravel()
        flat_considered = considered.ravel()
        for _ in range(self._max_query_attempts):
            if waiting.size == 0:
                break
            ends = np.searchsorted(waiting, alive_ends).tolist()
            # 3a. One uniform integer draw per query; rank-shift excludes
            #     self (waiting cells always have >= 2 alive in their row).
            peer = row_start[waiting] + self._rng.run_integers(peer_high, ends)
            peer += peer >= waiting
            # 3b/3c. Independent loss masks for the queries and the replies.
            #        Every delivered query is answered, so replies sent equal
            #        queries delivered, and every message is delivered or
            #        dropped.  A reply delivered from a committed peer
            #        satisfies the node; everyone else retries.
            peer_choice = flat_choices[alive_cells[peer]]
            num_waiting = waiting.size
            query_arrives, satisfied = self._rng.run_random(ends, 2) >= self._loss_rate
            replies_sent = int(np.count_nonzero(query_arrives))
            satisfied &= query_arrives
            replies_delivered = int(np.count_nonzero(satisfied))
            self._stats.sent += num_waiting + replies_sent
            self._stats.delivered += replies_sent + replies_delivered
            self._stats.dropped += num_waiting - replies_delivered
            satisfied &= peer_choice >= 0
            # Index arrays, not boolean masks: numpy compresses through them
            # several times faster.
            answered = np.flatnonzero(satisfied)
            flat_considered[alive_cells[waiting[answered]]] = peer_choice[answered]
            waiting = waiting.compress(~satisfied)

        # 4. Fallback exploration for nodes that never heard back.
        if waiting.size:
            flat_considered[alive_cells[waiting]] = self._rng.run_integers(
                self._num_options, np.searchsorted(waiting, alive_ends).tolist()
            )
            self._fallback_explorations += int(waiting.size)

        # 5. Adoption stage: every alive node considers an option; look its
        #    adopt probability up from the (R, m) table and thin in one
        #    broadcast draw.
        adopt_probability = row_lookup(
            self._adoption_rule.adopt_probabilities(rewards), considered
        )
        adopted = self._rng.random(shape) < adopt_probability
        np.copyto(self._choices, np.where(adopted, considered, -1), where=self._alive)
        self._round += 1

    def run(self, environment: RewardEnvironment, rounds: int) -> BatchedProtocolResult:
        """Run every replicate for ``rounds`` rounds against ``environment``.

        Each round draws one ``(R, m)`` reward batch via
        :meth:`~repro.environments.base.RewardEnvironment.sample_batch`, so
        replicates observe independent reward realisations from the same
        environment instance.
        """
        rounds = check_positive_int(rounds, "rounds")
        if environment.num_options != self._num_options:
            raise ValueError(
                "environment and protocol disagree on the number of options"
            )
        state = self.state()
        trajectory = BatchedTrajectory(initial_state=state)
        alive_rows = []
        float_dtype = self._precision.float_dtype
        for _ in range(rounds):
            pre_round_popularity = state.popularity(dtype=float_dtype)
            rewards = environment.sample_batch(self._num_replicates)
            alive_rows.append(self._alive.sum(axis=1))
            self.run_round(rewards)
            state = self.state()
            trajectory.record(pre_round_popularity, rewards, state)
        return BatchedProtocolResult(
            trajectory=trajectory,
            alive_matrix=np.stack(alive_rows),
            transport_stats=self._stats.as_dict(),
            fallback_explorations=self._fallback_explorations,
            best_option=environment.best_option,
            best_quality=environment.best_quality,
        )
