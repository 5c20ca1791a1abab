"""Core of the reproduction: the paper's learning dynamics and its analysis.

Modules
-------
``adoption``
    The adoption functions ``f_i`` of stage (2), including the paper's
    symmetric ``alpha = 1 - beta`` convention and general ``(alpha, beta)``.
``sampling``
    The sampling stage (1): mixture of uniform exploration (weight ``mu``) and
    copy-a-random-group-member (weight ``1 - mu``), plus the ablation variants.
``state``
    Population state (per-option counts / popularity) and trajectory recording.
``dynamics``
    The finite-population distributed learning dynamics — a fast vectorised
    simulator and a faithful agent-based simulator.
``batched``
    The replicate-axis batched engine: ``R`` independent replicates advanced
    as one ``(R, m)`` count matrix per step, with per-replicate trajectory
    views and batched metric accessors.
``infinite``
    The infinite-population limit: the stochastic multiplicative-weights
    process of Eq. (1).
``coupling``
    The shared-reward coupling between finite and infinite dynamics used in
    Lemma 4.5.
``regret``
    Average-regret accounting (``Regret_N(T)``, ``Regret_inf(T)``) and
    best-option share.
``theory``
    Every constant and bound appearing in Theorems 4.3/4.4/4.6, Lemma 4.5 and
    Propositions 4.1–4.3, as executable functions.
``epochs``
    The epoch decomposition used in the large-``T`` part of Theorem 4.4.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "adoption": (
            "AdoptionRule",
            "AlwaysAdoptRule",
            "GeneralAdoptionRule",
            "RowwiseAdoptionRule",
            "SymmetricAdoptionRule",
        ),
        "sampling": (
            "SamplingRule",
            "MixtureSampling",
            "PopularityOnlySampling",
            "UniformSampling",
        ),
        "state": ("PopulationState", "Trajectory"),
        "dynamics": (
            "FinitePopulationDynamics",
            "AgentBasedDynamics",
            "simulate_finite_population",
        ),
        "batched": (
            "BatchedDynamics",
            "BatchedPopulationState",
            "BatchedTrajectory",
            "simulate_batched_population",
        ),
        "infinite": ("InfinitePopulationDynamics", "simulate_infinite_population"),
        "coupling": ("CoupledRun", "run_coupled_dynamics"),
        "regret": ("RegretAccumulator", "best_option_share", "empirical_regret"),
        "theory": ("TheoryBounds", "optimal_beta"),
        "epochs": ("EpochSchedule",),
        "heterogeneous": ("AgentType", "HeterogeneousPopulationDynamics"),
    },
)
