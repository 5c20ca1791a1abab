"""Reward environments: the stochastic option-quality processes of the paper.

The paper's model (Section 2.1) assumes each option ``j`` has an unknown
quality ``eta_j`` and emits a fresh Bernoulli signal ``R^t_j ~ Bern(eta_j)``
each step.  :class:`BernoulliEnvironment` implements exactly that model;
:class:`RowwiseBernoulliEnvironment` generalises it with one quality vector
per batch row, which the sweep-axis batched engine uses to advance a whole
parameter grid in one pass.

The paper also shows (second worked example in Section 2.1, after Ellison &
Fudenberg 1995) how a richer reward model — continuous-valued rewards with
player-specific shocks — reduces to the binary model.  That model is
implemented here as well (:class:`EllisonFudenbergEnvironment`), together
with the drifting qualities named as future work in Section 6
(:class:`PiecewiseConstantDriftEnvironment`, :class:`RandomWalkDriftEnvironment`).

All environments share the :class:`RewardEnvironment` interface: call
:meth:`~RewardEnvironment.sample` once per time step to obtain the vector
``(R^t_1, ..., R^t_m)``.  :class:`RecordedRewardSequence` replays a fixed
reward stream, which is how the coupling of Lemma 4.5 and the like-for-like
baseline comparisons are implemented.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": ("RewardEnvironment",),
        "bernoulli": ("BernoulliEnvironment", "RowwiseBernoulliEnvironment"),
        "continuous": ("EllisonFudenbergEnvironment",),
        "drift": (
            "PiecewiseConstantDriftEnvironment",
            "RandomWalkDriftEnvironment",
        ),
        "replay": ("RecordedRewardSequence", "record_rewards"),
    },
)
