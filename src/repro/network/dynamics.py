"""The two-stage dynamics with neighbourhood-restricted sampling.

Stage (1) is modified so that an individual observes the previous-step choice
of a uniformly random *neighbour* in the social graph (rather than of any
group member); stage (2) is unchanged.  With the complete graph this reduces
to the original dynamics.

:class:`NetworkDynamics` is the per-agent reference loop (one Python
iteration per agent per step) and defines the process's semantics.  The
replicate-axis engine
:class:`~repro.network.vectorized.BatchedNetworkDynamics` simulates the same
per-step law with one CSR matvec per replicate and step; the two consume
randomness differently, so equal seeds give different trajectories, and the
equivalence is distributional, enforced by the KS / chi-squared
cross-validation in ``tests/integration/``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.adoption import AdoptionRule, SymmetricAdoptionRule
from repro.core.sampling import default_exploration_rate
from repro.core.state import PopulationState, Trajectory
from repro.environments.base import RewardEnvironment
from repro.network.topology import SocialNetwork
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


class NetworkDynamics:
    """Per-agent reference implementation of the network-restricted dynamics.

    Advances one agent at a time in Python; exact but slow — at large ``N``
    use :class:`~repro.network.vectorized.BatchedNetworkDynamics` (with
    ``num_replicates=1`` for a single replicate), which simulates the same
    process orders of magnitude faster (see
    ``benchmarks/test_bench_network.py``).

    Each individual keeps its current option (or "sitting out").  Per step:

    1. with probability ``mu`` consider a uniformly random option; otherwise
       pick a uniformly random *committed* neighbour and consider the option
       that neighbour held after the previous step (if every neighbour is
       sitting out, or the individual has no neighbours, fall back to a
       uniformly random option);
    2. adopt the considered option with probability ``beta``/``alpha``
       depending on its fresh quality signal, else sit out this step.

    Parameters
    ----------
    network:
        The social graph over the ``N`` individuals.
    num_options:
        Number of options ``m``.
    adoption_rule:
        The shared adoption function; defaults to the symmetric rule with
        ``beta = 0.6``.
    exploration_rate:
        The probability ``mu`` of uniform exploration in stage (1).
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        network: SocialNetwork,
        num_options: int,
        adoption_rule: Optional[AdoptionRule] = None,
        exploration_rate: float = 0.05,
        rng: RngLike = None,
    ) -> None:
        if not isinstance(network, SocialNetwork):
            raise TypeError("network must be a SocialNetwork")
        self._network = network
        self._num_options = check_positive_int(num_options, "num_options")
        self._adoption_rule = adoption_rule or SymmetricAdoptionRule(0.6)
        self._mu = check_probability(exploration_rate, "exploration_rate")
        self._rng = ensure_rng(rng)
        self._time = 0
        # choices[i] is the option agent i holds, or -1 when sitting out.
        self._choices = self._rng.integers(
            num_options, size=network.size
        ).astype(np.int64)

    # ------------------------------------------------------------ properties
    @property
    def network(self) -> SocialNetwork:
        """The social graph."""
        return self._network

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return self._num_options

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

    def choices(self) -> np.ndarray:
        """Per-agent current options (-1 means sitting out); copy."""
        return self._choices.copy()

    def set_choices(self, choices: np.ndarray) -> None:
        """Overwrite every agent's current option (-1 means sitting out).

        Scenario setup hook: start a run from a prescribed configuration
        (warm starts, adversarial initialisations, or — in the tests — a
        group where every neighbour sits out, which exercises the uniform
        fallback of stage 1).
        """
        choices = np.asarray(choices)
        if choices.shape != (self._network.size,):
            raise ValueError(
                f"choices must have shape ({self._network.size},), got {choices.shape}"
            )
        if np.any(choices < -1) or np.any(choices >= self._num_options):
            raise ValueError(
                f"choices must lie in -1..{self._num_options - 1} (got range "
                f"[{choices.min()}, {choices.max()}])"
            )
        self._choices = choices.astype(np.int64).copy()

    def state(self) -> PopulationState:
        """Aggregate population state (counts of committed agents per option)."""
        committed = self._choices[self._choices >= 0]
        counts = np.bincount(committed, minlength=self._num_options)
        return PopulationState(
            counts=counts.astype(np.int64),
            population_size=self._network.size,
            time=self._time,
        )

    def popularity(self) -> np.ndarray:
        """Popularity distribution among committed agents (uniform if none)."""
        return self.state().popularity()

    # ------------------------------------------------------------------ step
    def step(self, rewards: np.ndarray) -> PopulationState:
        """Advance all agents one step given the reward vector ``R^{t+1}``."""
        rewards = np.asarray(rewards)
        if rewards.shape != (self._num_options,):
            raise ValueError(
                f"rewards must have shape ({self._num_options},), got {rewards.shape}"
            )
        if np.any((rewards != 0) & (rewards != 1)):
            raise ValueError("rewards must be binary")

        size = self._network.size
        previous_choices = self._choices
        considered = np.empty(size, dtype=np.int64)

        explore_mask = self._rng.random(size) < self._mu
        uniform_options = self._rng.integers(self._num_options, size=size)

        for agent in range(size):
            if explore_mask[agent]:
                considered[agent] = uniform_options[agent]
                continue
            neighbors = self._network.neighbors(agent)
            if neighbors.size == 0:
                considered[agent] = uniform_options[agent]
                continue
            # Observe a uniformly random *committed* neighbour, mirroring the
            # population-level sampling probabilities (Eq. 2) which are defined
            # over the committed sub-population.  If every neighbour is sitting
            # out, fall back to uniform exploration.
            neighbor_choices = previous_choices[neighbors]
            committed_choices = neighbor_choices[neighbor_choices >= 0]
            if committed_choices.size == 0:
                considered[agent] = uniform_options[agent]
            else:
                considered[agent] = committed_choices[
                    int(self._rng.integers(committed_choices.size))
                ]

        adopt_probability = np.where(
            rewards[considered] == 1,
            self._adoption_rule.beta,
            self._adoption_rule.alpha,
        )
        adopted = self._rng.random(size) < adopt_probability
        self._choices = np.where(adopted, considered, -1).astype(np.int64)
        self._time += 1
        return self.state()

    def run(self, environment: RewardEnvironment, horizon: int) -> Trajectory:
        """Simulate ``horizon`` steps against ``environment``; record the trajectory."""
        horizon = check_positive_int(horizon, "horizon")
        if environment.num_options != self._num_options:
            raise ValueError(
                "environment and dynamics disagree on the number of options"
            )
        # One state per step: the pre-step popularity is read off the state
        # the previous step() already computed instead of rebuilding the
        # bincount from the raw choices a second time.
        state = self.state()
        trajectory = Trajectory(initial_state=state)
        for _ in range(horizon):
            pre_step_popularity = state.popularity()
            rewards = environment.sample()
            state = self.step(rewards)
            trajectory.record(pre_step_popularity, rewards, state)
        return trajectory


def simulate_network_dynamics(
    environment: RewardEnvironment,
    network: SocialNetwork,
    horizon: int,
    *,
    beta: float = 0.6,
    mu: Optional[float] = None,
    rng: RngLike = None,
) -> Trajectory:
    """One-call helper mirroring :func:`repro.core.dynamics.simulate_finite_population`.

    Runs the per-agent reference loop; for speed at large ``N`` use
    :func:`~repro.network.vectorized.simulate_batched_network_dynamics`.
    """
    adoption_rule = SymmetricAdoptionRule(beta)
    if mu is None:
        mu = default_exploration_rate(adoption_rule)
    dynamics = NetworkDynamics(
        network=network,
        num_options=environment.num_options,
        adoption_rule=adoption_rule,
        exploration_rate=mu,
        rng=rng,
    )
    return dynamics.run(environment, horizon)
