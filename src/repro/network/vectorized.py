"""Replicate-axis sparse engine for the network-restricted dynamics.

The per-agent reference loop (:class:`~repro.network.dynamics.NetworkDynamics`)
advances one agent at a time in Python, which makes topology experiments at
``N = 10^4`` orders of magnitude slower than the batched core engine.
:class:`BatchedNetworkDynamics` removes that loop by exploiting the sparse
adjacency structure the graph already has: ``R`` replicates *sharing one
graph* advance as a single ``(R, N)`` choices matrix per step.  Every
agent's committed-neighbour option counts ``S = A @ onehot(choices)`` come
from one CSR gather and one :func:`numpy.bincount` per replicate over
``(slot, agent)`` keys, where slot 0 collects the sitting-out neighbours and
slot ``j + 1`` option ``j``; "a uniformly random committed neighbour's
choice" is then drawn per agent by row-normalised inverse-CDF sampling on
``S``.  No Python loop over agents.

The engine simulates exactly the per-step law of the reference loop (explore
with probability ``mu``; otherwise copy a uniformly random committed
neighbour, falling back to uniform when the neighbourhood has no committed
member; then adopt via ``beta``/``alpha`` thinning).  It consumes the random
stream differently from the loop, so equal seeds give different trajectories;
the equivalence is *distributional* and is enforced by KS / chi-squared
cross-validation in ``tests/integration/test_cross_validation.py``, with
bit-exact golden fixtures pinning the engine.  To re-run one replicate from
its own seed, run the engine with ``num_replicates=1`` seeded from that seed;
a launch on one-seed row blocks gives every row that run.

Memory model: per step the engine materialises one replicate's ``(E,)``
neighbour-key gather at a time (``E`` = number of directed edge slots), so
keys and counts stay cache-sized, and the ``(R, m + 1, N)`` slot-count
tensor, read as ``(R, N, m)`` option planes — ``O(E + R·N·m)`` independent
of the horizon; the recorded trajectory stores only ``(R, m)`` aggregates
per step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends import PrecisionLike, resolve_precision
from repro.core.adoption import AdoptionRule, SymmetricAdoptionRule
from repro.core.batched import (
    BatchedPopulationState,
    BatchedTrajectory,
    choice_counts,
    row_lookup,
)
from repro.core.sampling import default_exploration_rate
from repro.environments.base import RewardEnvironment
from repro.network.topology import SocialNetwork
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


def _check_key_space(num_replicates: int, size: int, num_options: int) -> None:
    """Refuse count tensors whose flat index would wrap int64.

    The batched matvec counts into ``m + 1`` slots per agent and replicate,
    so it needs ``R * N * (m + 1) <= 2**63 - 1``.  The product is taken over
    Python ints (which cannot wrap), so the guard fires *before* any array
    arithmetic could silently alias distinct keys.
    """
    span = int(num_replicates) * int(size) * (int(num_options) + 1)
    if span > np.iinfo(np.int64).max:
        raise OverflowError(
            f"bincount key space R*N*(m+1) = {num_replicates} * {size} * "
            f"{int(num_options) + 1} = {span} overflows int64 flat indices; "
            "shard the replicate axis across runs instead"
        )


def committed_neighbor_counts(
    network: SocialNetwork, choices: np.ndarray, num_options: int
) -> np.ndarray:
    """Per-agent committed-neighbour option counts via one CSR gather + bincount.

    Parameters
    ----------
    network:
        The social graph (its CSR arrays are built once and cached).
    choices:
        Current options, shape ``(R, N)``; ``-1`` = sitting out.
    num_options:
        Number of options ``m``.

    Returns
    -------
    numpy.ndarray
        ``S`` with shape ``(R, N, m)``: ``S[r, i, j]`` is the number of agent
        ``i``'s neighbours whose current choice in replicate ``r`` is ``j`` —
        exactly ``A @ onehot(choices[r])`` with the sitting-out rows of the
        one-hot all zero.  It is a view whose option planes ``S[..., j]`` are
        contiguous along the agent axis.
    """
    size = network.size
    _check_key_space(choices.shape[0], size, num_options)
    # Key of neighbour choice c for agent i: (c + 1) * N + i, so slot 0
    # collects sitting-out neighbours and the gather needs no mask or
    # compress.  One bincount per replicate keeps its keys and counts
    # cache-sized.
    slot_offsets = np.multiply(choices, size, dtype=np.int64)
    slot_offsets += size
    counts = np.empty((choices.shape[0], (num_options + 1) * size), dtype=np.int64)
    for row_counts, row_offsets in zip(counts, slot_offsets):
        keys = row_offsets[network.csr_indices]
        keys += network.csr_edge_rows
        row_counts[:] = np.bincount(keys, minlength=row_counts.size)
    return counts.reshape(-1, num_options + 1, size)[:, 1:].transpose(0, 2, 1)


def _inverse_cdf_rows(
    counts: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one index per row of ``counts`` with probability proportional to it.

    ``counts`` has shape ``(..., m)`` with non-negative integer rows;
    ``uniforms`` has the matching leading shape with values in ``[0, 1)``.
    The draw is row-normalised inverse-CDF sampling: index ``j`` wins iff
    ``u * total`` lands in ``[cdf_{j-1}, cdf_j)``, so option ``j`` is chosen
    with probability exactly ``counts[..., j] / total``.

    Returns ``(picks, totals)`` — callers need the row totals for the
    fallback mask.  The pick counts the CDF entries ``cdf_0 .. cdf_{m-2}``
    at or below the target, one comparison per option plane, so it lies in
    ``0..m-1`` by construction: for rows with a positive total this is the
    inverse-CDF pick whenever ``u < 1`` strictly, and at the ``u == 1.0``
    boundary, where the target ties the final CDF entry, it is ``m - 1``.
    Rows summing to zero also report ``m - 1`` — callers MUST still mask
    them via ``totals == 0`` (they are exactly the uniform-fallback agents).
    """
    totals = counts.sum(axis=-1)
    targets = uniforms * totals
    cdf = np.zeros(totals.shape, dtype=np.int64)
    picks = np.zeros(totals.shape, dtype=np.int64)
    for option in range(counts.shape[-1] - 1):
        cdf += counts[..., option]
        picks += targets >= cdf
    return picks, totals


class BatchedNetworkDynamics:
    """Replicate-axis vectorised simulator of the network-restricted dynamics.

    Advances ``R`` statistically independent replicates *sharing one graph*
    as a single ``(R, N)`` choices matrix per step: a CSR gather and one
    bincount per replicate produce every replicate's committed-neighbour
    counts, followed by batched inverse-CDF sampling and one broadcast
    adoption thinning.  The graph (and its CSR arrays) is built once and
    shared read-only across replicates — memory is ``O(E + R·N·m)`` for the
    dynamic state, not ``O(R·E)``.

    A plain generator (or seed) drives every replicate, so a batch is
    reproducible from a single seed but its replicates are not
    independently re-runnable.  A :class:`~repro.utils.rng.RowBlockGenerator`
    of one-seed blocks gives each replicate its own generator instead, and
    then row ``r`` is the ``num_replicates=1`` run of its seed: every draw
    has whole-row shape, so each row's part comes from its own generator.

    Parameters
    ----------
    network:
        The social graph shared by every replicate.
    num_options:
        Number of options ``m``.
    num_replicates:
        Number of independent replicates ``R``.
    adoption_rule:
        The shared adoption function; defaults to the symmetric rule with
        ``beta = 0.6``.
    exploration_rate:
        The probability ``mu`` of uniform exploration in stage (1).
    rng:
        Seed, generator or :class:`~repro.utils.rng.RowBlockGenerator`.
    precision:
        Storage precision (default float64/int64).  Random draws always run
        in float64, so the stored-state dtype does not perturb the stream —
        trajectories at every precision are bit-identical up to storage
        rounding of the recorded popularity.
    """

    def __init__(
        self,
        network: SocialNetwork,
        num_options: int,
        num_replicates: int,
        adoption_rule: Optional[AdoptionRule] = None,
        exploration_rate: float = 0.05,
        rng: RngLike = None,
        precision: PrecisionLike = None,
    ) -> None:
        if not isinstance(network, SocialNetwork):
            raise TypeError("network must be a SocialNetwork")
        self._network = network
        self._num_options = check_positive_int(num_options, "num_options")
        self._num_replicates = check_positive_int(num_replicates, "num_replicates")
        self._adoption_rule = adoption_rule or SymmetricAdoptionRule(0.6)
        self._mu = check_probability(exploration_rate, "exploration_rate")
        self._precision = resolve_precision(precision)
        self._precision.check_count_value(int(network.size), "network size")
        self._rng = ensure_rng(rng)
        self._time = 0
        self._choices = self._rng.integers(
            num_options, size=(num_replicates, network.size)
        ).astype(self._precision.int_dtype)

    # ------------------------------------------------------------ properties
    @property
    def network(self) -> SocialNetwork:
        """The social graph shared by every replicate."""
        return self._network

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return self._num_options

    @property
    def num_replicates(self) -> int:
        """Number of replicates ``R``."""
        return self._num_replicates

    @property
    def adoption_rule(self) -> AdoptionRule:
        """The shared adoption rule."""
        return self._adoption_rule

    @property
    def exploration_rate(self) -> float:
        """The exploration probability ``mu``."""
        return self._mu

    @property
    def time(self) -> int:
        """Number of steps simulated."""
        return self._time

    @property
    def precision(self):
        """The storage :class:`~repro.backends.Precision` of the engine."""
        return self._precision

    def choices(self) -> np.ndarray:
        """Per-replicate, per-agent current options, shape ``(R, N)``; copy."""
        return self._choices.copy()

    def set_choices(self, choices: np.ndarray) -> None:
        """Overwrite the whole ``(R, N)`` choices matrix (-1 means sitting out)."""
        choices = np.asarray(choices)
        expected = (self._num_replicates, self._network.size)
        if choices.shape != expected:
            raise ValueError(
                f"choices must have shape {expected}, got {choices.shape}"
            )
        if np.any(choices < -1) or np.any(choices >= self._num_options):
            raise ValueError(
                f"choices must lie in -1..{self._num_options - 1} (got range "
                f"[{choices.min()}, {choices.max()}])"
            )
        self._choices = choices.astype(self._precision.int_dtype).copy()

    def state(self) -> BatchedPopulationState:
        """Aggregate ``(R, m)`` committed counts of every replicate."""
        counts = choice_counts(self._choices, self._num_options)
        return BatchedPopulationState(
            counts=counts.astype(self._precision.int_dtype),
            population_size=self._network.size,
            time=self._time,
        )

    def popularity(self) -> np.ndarray:
        """Per-replicate popularity among committed agents, shape ``(R, m)``."""
        return self.state().popularity()

    # ------------------------------------------------------------------ step
    def step(self, rewards: np.ndarray) -> BatchedPopulationState:
        """Advance every replicate one step given the rewards ``R^{t+1}``.

        Parameters
        ----------
        rewards:
            An ``(R, m)`` matrix of per-replicate binary reward realisations,
            or a single ``(m,)`` vector shared by all replicates (the
            coupled / common-rewards regime).
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

        shape = (self._num_replicates, self._network.size)
        explore_mask = self._rng.random(shape) < self._mu
        uniform_options = self._rng.integers(self._num_options, size=shape)

        # Stage 1: copy a uniformly random committed neighbour's choice.
        pick_uniforms = self._rng.random(shape)
        counts = committed_neighbor_counts(
            self._network, self._choices, self._num_options
        )  # (R, N, m)
        neighbor_pick, totals = _inverse_cdf_rows(counts, pick_uniforms)
        no_committed_neighbor = totals == 0
        considered = np.where(
            explore_mask | no_committed_neighbor, uniform_options, neighbor_pick
        )

        # The adopt probability depends only on the considered option's
        # signal: look it up from the (R, m) table of every option's.
        adopt_probability = row_lookup(
            self._adoption_rule.adopt_probabilities(rewards), considered
        )
        adopted = self._rng.random(shape) < adopt_probability
        self._choices = np.where(adopted, considered, -1).astype(
            self._precision.int_dtype, copy=False
        )
        self._time += 1
        return self.state()

    def run(self, environment: RewardEnvironment, horizon: int) -> BatchedTrajectory:
        """Simulate ``horizon`` steps of every replicate against ``environment``.

        Each step draws one ``(R, m)`` reward batch via
        :meth:`~repro.environments.base.RewardEnvironment.sample_batch`, so
        replicates observe independent reward realisations from the same
        environment instance (sharing its quality path, if it drifts).
        """
        horizon = check_positive_int(horizon, "horizon")
        if environment.num_options != self._num_options:
            raise ValueError(
                "environment and dynamics disagree on the number of options"
            )
        state = self.state()
        trajectory = BatchedTrajectory(initial_state=state)
        float_dtype = self._precision.float_dtype
        for _ in range(horizon):
            pre_step_popularity = state.popularity(dtype=float_dtype)
            rewards = environment.sample_batch(self._num_replicates)
            state = self.step(rewards)
            trajectory.record(pre_step_popularity, rewards, state)
        return trajectory


def simulate_batched_network_dynamics(
    environment: RewardEnvironment,
    network: SocialNetwork,
    horizon: int,
    num_replicates: int,
    *,
    beta: float = 0.6,
    mu: Optional[float] = None,
    rng: RngLike = None,
    precision: PrecisionLike = None,
) -> BatchedTrajectory:
    """One-call helper: run ``num_replicates`` network replicates on one graph.

    The network counterpart of
    :func:`~repro.core.batched.simulate_batched_population`: every replicate
    shares the graph and one generator, and the ``mu`` default is the same
    theorem maximum every other engine derives via
    :func:`~repro.core.sampling.default_exploration_rate`.
    """
    adoption_rule = SymmetricAdoptionRule(beta)
    if mu is None:
        mu = default_exploration_rate(adoption_rule)
    dynamics = BatchedNetworkDynamics(
        network=network,
        num_options=environment.num_options,
        num_replicates=num_replicates,
        adoption_rule=adoption_rule,
        exploration_rate=mu,
        rng=rng,
        precision=precision,
    )
    return dynamics.run(environment, horizon)
