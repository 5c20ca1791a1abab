"""repro — reproduction of *A Distributed Learning Dynamics in Social Groups*.

Celis, Krafft, Vishnoi (PODC 2017; arXiv:1705.03414).

The package implements the paper's two-stage distributed social learning
dynamics in finite populations, its infinite-population limit (a stochastic
multiplicative-weights process), the coupling between the two, regret
accounting, every bound stated in the paper's theorems, and the surrounding
substrates needed to evaluate them: reward environments, baseline learners,
social-network-restricted sampling and a message-passing distributed-protocol
simulation.

Quickstart
----------
>>> from repro import BernoulliEnvironment, simulate_finite_population, expected_regret
>>> env = BernoulliEnvironment([0.8, 0.5, 0.5], rng=0)
>>> trajectory = simulate_finite_population(env, population_size=2000, horizon=300,
...                                          beta=0.6, rng=1)
>>> regret = expected_regret(trajectory.popularity_matrix(), env.qualities)

See ``examples/quickstart.py`` for a narrated version and
``benchmarks/results/`` for the experiment-by-experiment reproduction of the
paper's results (one CSV per E1–E14 benchmark).

This package and its subpackages load each export's module on first access
(PEP 562, :func:`repro._lazy.lazy_exports`), so ``import repro`` loads no
numpy and a command loads only the modules it runs.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core": (
            # core dynamics
            "FinitePopulationDynamics",
            "AgentBasedDynamics",
            "BatchedDynamics",
            "BatchedPopulationState",
            "BatchedTrajectory",
            "simulate_batched_population",
            "AgentType",
            "HeterogeneousPopulationDynamics",
            "InfinitePopulationDynamics",
            "simulate_finite_population",
            "simulate_infinite_population",
            "run_coupled_dynamics",
            "CoupledRun",
            # rules and state
            "AdoptionRule",
            "SymmetricAdoptionRule",
            "GeneralAdoptionRule",
            "RowwiseAdoptionRule",
            "AlwaysAdoptRule",
            "SamplingRule",
            "MixtureSampling",
            "UniformSampling",
            "PopularityOnlySampling",
            "PopulationState",
            "Trajectory",
            "EpochSchedule",
            # regret and theory
            "RegretAccumulator",
            "best_option_share",
            "empirical_regret",
            "TheoryBounds",
            "optimal_beta",
        ),
        "core.regret": ("expected_regret", "expected_step_rewards", "step_rewards"),
        "environments": (
            "RewardEnvironment",
            "BernoulliEnvironment",
            "EllisonFudenbergEnvironment",
            "PiecewiseConstantDriftEnvironment",
            "RandomWalkDriftEnvironment",
            "RecordedRewardSequence",
            "record_rewards",
        ),
        "agents": ("Agent", "Population"),
    },
)
__all__.append("__version__")
