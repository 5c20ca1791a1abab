"""The finite-population distributed learning dynamics (Section 2.1).

Two interchangeable simulators are provided:

* :class:`FinitePopulationDynamics` — a vectorised simulator that tracks only
  the per-option adoption counts ``D^t_j``.  Because all individuals are
  exchangeable when the adoption rules are identical, the joint evolution of
  the counts is exactly a multinomial draw (stage 1, Eq. 2) followed by
  per-option binomial thinning (stage 2, Eq. 3); no per-agent loop is needed.
  This is the implementation used by benchmarks and large-``N`` experiments.

* :class:`AgentBasedDynamics` — a faithful agent-by-agent simulator built on
  :class:`repro.agents.Population`.  It supports heterogeneous adoption rules
  and pluggable companion selection (used by the social-network extension in
  :mod:`repro.network`), at the cost of ``O(N)`` work per step.

The test suite cross-validates the two implementations statistically.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.agents.population import Population
from repro.core.adoption import AdoptionRule, SymmetricAdoptionRule
from repro.core.sampling import MixtureSampling, SamplingRule, default_exploration_rate
from repro.core.state import PopulationState, Trajectory
from repro.environments.base import RewardEnvironment
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_int

CompanionSelector = Callable[[int, Population, np.random.Generator], Optional[int]]
"""Given (agent_id, population, rng), return the option observed from a companion.

Returning ``None`` means no committed companion was available and the agent
falls back to uniform exploration for this step.
"""


class FinitePopulationDynamics:
    """Vectorised simulator of the two-stage finite-population dynamics.

    Parameters
    ----------
    population_size:
        Number of individuals ``N``.
    num_options:
        Number of options ``m``.
    adoption_rule:
        The (shared) adoption function ``f``; defaults to the paper's
        symmetric rule with ``beta = 0.6``.
    sampling_rule:
        The sampling stage; defaults to :class:`MixtureSampling` with
        ``mu = delta^2 / 6`` evaluated at the adoption rule's ``delta``
        (the largest exploration rate the theorems allow), or ``mu = 0.01``
        when ``delta`` is degenerate.
    initial_state:
        Starting counts; defaults to the near-uniform split matching
        ``Q^0_j = 1/m``.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        population_size: int,
        num_options: int,
        adoption_rule: Optional[AdoptionRule] = None,
        sampling_rule: Optional[SamplingRule] = None,
        initial_state: Optional[PopulationState] = None,
        rng: RngLike = None,
    ) -> None:
        self._population_size = check_positive_int(population_size, "population_size")
        self._num_options = check_positive_int(num_options, "num_options")
        self._adoption_rule = adoption_rule or SymmetricAdoptionRule(0.6)
        if sampling_rule is None:
            sampling_rule = MixtureSampling(
                default_exploration_rate(self._adoption_rule)
            )
        self._sampling_rule = sampling_rule
        if initial_state is None:
            initial_state = PopulationState.uniform(population_size, num_options)
        if initial_state.num_options != num_options:
            raise ValueError("initial_state has the wrong number of options")
        if initial_state.population_size != population_size:
            raise ValueError("initial_state has the wrong population size")
        self._initial_state = initial_state
        self._state = initial_state
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------ properties
    @property
    def population_size(self) -> int:
        """Number of individuals ``N``."""
        return self._population_size

    @property
    def num_options(self) -> int:
        """Number of options ``m``."""
        return self._num_options

    @property
    def adoption_rule(self) -> AdoptionRule:
        """The shared adoption function ``f``."""
        return self._adoption_rule

    @property
    def sampling_rule(self) -> SamplingRule:
        """The sampling stage rule."""
        return self._sampling_rule

    @property
    def state(self) -> PopulationState:
        """Current population state."""
        return self._state

    def popularity(self) -> np.ndarray:
        """Current popularity distribution ``Q^t``."""
        return self._state.popularity()

    def reset(self, rng: RngLike = None) -> None:
        """Return to the initial state (optionally reseeding the generator).

        Generator contract: with ``rng=None`` only the *state* rewinds — the
        generator keeps its advanced position, so a run after ``reset()``
        draws fresh randomness and will **not** reproduce the previous run.
        To replay a run exactly from the original seed, pass that seed (or a
        freshly seeded generator) explicitly: ``reset(rng=original_seed)``.
        """
        self._state = self._initial_state
        if rng is not None:
            self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------ step
    def step(self, rewards: Sequence[int]) -> PopulationState:
        """Advance the dynamics one step given the reward vector ``R^{t+1}``.

        Stage 1 draws the consideration counts ``S^{t+1}_j`` as one multinomial
        sample of size ``N`` with probabilities ``(1-mu) Q^t_j + mu/m``; stage 2
        thins each count binomially with probability ``beta`` (good signal) or
        ``alpha`` (bad signal).
        """
        rewards = np.asarray(rewards)
        if rewards.shape != (self._num_options,):
            raise ValueError(
                f"rewards must have shape ({self._num_options},), got {rewards.shape}"
            )
        if ((rewards != 0) & (rewards != 1)).any():
            raise ValueError("rewards must be binary")
        return self._advance(self._state.popularity(), rewards)

    def _advance(self, popularity: np.ndarray, rewards: np.ndarray) -> PopulationState:
        """The two stages of :meth:`step` from the current ``popularity``."""
        consideration = self._sampling_rule.consideration_probabilities(popularity)
        selected = self._rng.multinomial(self._population_size, consideration)
        adopt_probabilities = self._adoption_rule.adopt_probabilities(rewards)
        new_counts = self._rng.binomial(selected, adopt_probabilities)
        self._state = PopulationState(
            counts=new_counts.astype(np.int64),
            population_size=self._population_size,
            time=self._state.time + 1,
        )
        return self._state

    def run(
        self,
        environment: RewardEnvironment,
        horizon: int,
    ) -> Trajectory:
        """Simulate ``horizon`` steps against ``environment`` and record the trajectory."""
        horizon = check_positive_int(horizon, "horizon")
        if environment.num_options != self._num_options:
            raise ValueError(
                "environment and dynamics disagree on the number of options"
            )
        trajectory = Trajectory(initial_state=self._state)
        for _ in range(horizon):
            # sample() checked the rewards; the step reuses this popularity.
            pre_step_popularity = self._state.popularity()
            rewards = environment.sample()
            new_state = self._advance(pre_step_popularity, rewards)
            trajectory.record(pre_step_popularity, rewards, new_state)
        return trajectory


class AgentBasedDynamics:
    """Agent-by-agent reference simulator of the same dynamics.

    Each individual independently runs the two-stage protocol exactly as the
    paper describes it: pick a companion uniformly at random and observe the
    option it held at the previous step (or explore with probability ``mu``),
    then adopt based on the fresh quality signal via its own ``f_i``.

    Parameters
    ----------
    population:
        The group of agents (possibly heterogeneous).
    exploration_rate:
        The probability ``mu`` of ignoring the companion and exploring.
    companion_selector:
        Optional override for how a companion's option is obtained; used by
        the social-network extension to restrict observation to neighbours.
        The default samples uniformly among *committed* individuals, matching
        the population-level sampling probabilities of Eq. (2).
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        population: Population,
        exploration_rate: float = 0.05,
        companion_selector: Optional[CompanionSelector] = None,
        rng: RngLike = None,
    ) -> None:
        if not isinstance(population, Population):
            raise TypeError("population must be a Population instance")
        if not 0.0 <= exploration_rate <= 1.0:
            raise ValueError(
                f"exploration_rate must be in [0, 1], got {exploration_rate}"
            )
        self._population = population
        self._mu = float(exploration_rate)
        self._companion_selector = (
            companion_selector or self._default_companion_selector
        )
        self._rng = ensure_rng(rng)
        self._time = 0

    @staticmethod
    def _default_companion_selector(
        agent_id: int, population: Population, rng: np.random.Generator
    ) -> Optional[int]:
        """Observe the option of a uniformly random committed group member."""
        committed_options = [
            agent.current_option
            for agent in population
            if agent.current_option is not None
        ]
        if not committed_options:
            return None
        return committed_options[int(rng.integers(len(committed_options)))]

    # ------------------------------------------------------------ properties
    @property
    def population(self) -> Population:
        """The simulated group."""
        return self._population

    @property
    def exploration_rate(self) -> float:
        """The exploration probability ``mu``."""
        return self._mu

    @property
    def time(self) -> int:
        """Number of steps simulated so far."""
        return self._time

    def state(self) -> PopulationState:
        """Current population state derived from the agents' choices."""
        return PopulationState(
            counts=self._population.option_counts(),
            population_size=self._population.size,
            time=self._time,
        )

    # ------------------------------------------------------------------ step
    def step(self, rewards: Sequence[int]) -> PopulationState:
        """Advance every agent one step given the reward vector ``R^{t+1}``."""
        rewards = np.asarray(rewards)
        num_options = self._population.num_options
        if rewards.shape != (num_options,):
            raise ValueError(
                f"rewards must have shape ({num_options},), got {rewards.shape}"
            )
        if ((rewards != 0) & (rewards != 1)).any():
            raise ValueError("rewards must be binary")

        # Stage 1 for everyone is based on the *previous* step's choices, so
        # compute all considered options before any agent updates.
        considered: List[int] = []
        for agent in self._population:
            if self._rng.random() < self._mu:
                considered.append(int(self._rng.integers(num_options)))
                continue
            observed = self._companion_selector(
                agent.agent_id, self._population, self._rng
            )
            if observed is None:
                observed = int(self._rng.integers(num_options))
            considered.append(int(observed))

        # Stage 2: every agent decides based on the fresh signal of its option.
        for agent, option in zip(self._population, considered):
            agent.decide(option, int(rewards[option]), self._rng)

        self._time += 1
        return self.state()

    def run(self, environment: RewardEnvironment, horizon: int) -> Trajectory:
        """Simulate ``horizon`` steps against ``environment`` and record the trajectory."""
        horizon = check_positive_int(horizon, "horizon")
        if environment.num_options != self._population.num_options:
            raise ValueError(
                "environment and population disagree on the number of options"
            )
        trajectory = Trajectory(initial_state=self.state())
        for _ in range(horizon):
            pre_step_popularity = self._population.popularity()
            rewards = environment.sample()
            new_state = self.step(rewards)
            trajectory.record(pre_step_popularity, rewards, new_state)
        return trajectory


def simulate_finite_population(
    environment: RewardEnvironment,
    population_size: int,
    horizon: int,
    *,
    beta: float = 0.6,
    mu: Optional[float] = None,
    rng: RngLike = None,
) -> Trajectory:
    """One-call helper: build the vectorised dynamics with paper defaults and run it.

    Parameters
    ----------
    environment:
        Reward environment providing the quality signals.
    population_size:
        Group size ``N``.
    horizon:
        Number of steps ``T``.
    beta:
        Adoption probability on a good signal (``alpha = 1 - beta``).
    mu:
        Exploration rate; defaults to ``delta^2 / 6`` (the theorem maximum).
    rng:
        Seed or generator.
    """
    dynamics = FinitePopulationDynamics(
        population_size=population_size,
        num_options=environment.num_options,
        adoption_rule=SymmetricAdoptionRule(beta),
        sampling_rule=MixtureSampling(mu) if mu is not None else None,
        rng=rng,
    )
    return dynamics.run(environment, horizon)
