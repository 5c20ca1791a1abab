"""The per-seed loop engine, draw for draw, pinned to digests.

:class:`~repro.core.dynamics.FinitePopulationDynamics` records a run into
``(T, m)`` arrays and checks the counts it drew once per run, not once per
step.  These digests were recorded under numpy 2.4 before that change, so a
reordered or reshaped draw, or a different record, fails here.  Each case
runs 20 seeds and pins every pre-step popularity, reward and post-step count:

* ``separate``: the environment seeded at ``s`` and the dynamics at
  ``s + 1`` (the repository convention);
* ``shared``: one ``Generator`` passed to both, so the reward and dynamics
  draws interleave on one stream;
* ``alpha0``: ``GeneralAdoptionRule(0, beta)``, where a step with no good
  signal empties the population and the next popularity falls back to
  uniform.

``dynamics_point_replication`` rows at ``alpha = 0`` are pinned the same way
(the default-``alpha`` rows are ``test_golden_trajectories``' ``sweep/loop``).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.adoption import GeneralAdoptionRule
from repro.core.dynamics import FinitePopulationDynamics
from repro.core.sampling import MixtureSampling
from repro.environments import BernoulliEnvironment
from repro.experiments.dynamics_sweep import dynamics_point_replication
from repro.utils.rng import seeds_for_replications

NUMPY_RELEASE = "2.4"
SEEDS = range(100, 120)

RUN_CASES = {
    "separate/m2": {"qualities": [0.7, 0.4], "N": 15, "T": 12, "alpha": 0.4,
                    "beta": 0.6, "mu": 0.1, "shared": False},
    "separate/m3": {"qualities": [0.8, 0.5, 0.45], "N": 40, "T": 10,
                    "alpha": 0.3, "beta": 0.7, "mu": 0.05, "shared": False},
    "shared/m2": {"qualities": [0.7, 0.4], "N": 15, "T": 12, "alpha": 0.4,
                  "beta": 0.6, "mu": 0.1, "shared": True},
    "shared/m3": {"qualities": [0.8, 0.5, 0.45], "N": 40, "T": 10,
                  "alpha": 0.3, "beta": 0.7, "mu": 0.05, "shared": True},
    "alpha0/m2": {"qualities": [0.3, 0.2], "N": 6, "T": 12, "alpha": 0.0,
                  "beta": 0.6, "mu": 0.01, "shared": False},
    "alpha0/m3-shared": {"qualities": [0.3, 0.25, 0.2], "N": 10, "T": 12,
                         "alpha": 0.0, "beta": 0.7, "mu": 0.01, "shared": True},
}

RUN_DIGESTS = {
    "separate/m2": (
        "3c812c5b2390d97320426c4fbcd069f4d7781c6bdb5b259048bc99e9a0370919"
    ),
    "separate/m3": (
        "f3e1370cea4fb09c287388b8b9bb14ca07ed9b341a81527a29bce83614b314ae"
    ),
    "shared/m2": (
        "3328f3c1f8030dfd68535e3cd59b54595b8ebb3169641a42790152119d8adcaf"
    ),
    "shared/m3": (
        "600b45b82fa529a68015f8b3038972e891396252fb15669a7828d65cd5e6d42a"
    ),
    "alpha0/m2": (
        "90f4ace05b479576aa721ac13a60b5a45bb935d5e1aaa11b83132bc5d017e3f2"
    ),
    "alpha0/m3-shared": (
        "d91d28f30ff42fce2491e7baab1f0e015a680cfb5675cd3280645ac3882280a7"
    ),
}

ROW_POINTS = [
    {"qualities": list(qualities), "N": population, "T": horizon,
     "alpha": 0.0, "beta": beta}
    for qualities in ((0.3, 0.2), (0.35, 0.3, 0.2))
    for population in (4, 12)
    for horizon, beta in ((5, 0.6), (9, 0.75))
]

ROWS_DIGEST = (
    "7d30f8628c95d84534620090db620bd28d0ea0a8eae8b96414c6775cfb4de4ad"
)


def run_record(case: dict) -> dict:
    """Every pre-step popularity, reward and count of the case's 20 runs."""
    records = []
    for seed in SEEDS:
        if case["shared"]:
            environment_rng = dynamics_rng = np.random.default_rng(seed)
        else:
            environment_rng, dynamics_rng = seed, seed + 1
        dynamics = FinitePopulationDynamics(
            population_size=case["N"],
            num_options=len(case["qualities"]),
            adoption_rule=GeneralAdoptionRule(case["alpha"], case["beta"]),
            sampling_rule=MixtureSampling(case["mu"]),
            rng=dynamics_rng,
        )
        environment = BernoulliEnvironment(case["qualities"], rng=environment_rng)
        trajectory = dynamics.run(environment, case["T"])
        records.append(
            {
                "popularities": trajectory.popularity_matrix().tolist(),
                "rewards": trajectory.reward_matrix().tolist(),
                "counts": [state.counts.tolist() for state in trajectory.states],
            }
        )
    return {"numpy_release": _numpy_release(), "case": case, "runs": records}


def rows_record() -> dict:
    """``dynamics_point_replication`` rows of every ``ROW_POINTS`` point, 25 seeds each."""
    rows = [
        dynamics_point_replication(seed, dict(parameters))
        for index, parameters in enumerate(ROW_POINTS)
        for seed in seeds_for_replications(300 + index, 25)
    ]
    return {"numpy_release": _numpy_release(), "rows": rows}


def digest(record: dict) -> str:
    encoded = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _numpy_release() -> str:
    return ".".join(np.__version__.split(".")[:2])


def _skip_unless_pinned_numpy() -> None:
    if _numpy_release() != NUMPY_RELEASE:
        pytest.skip(
            f"digests recorded under numpy {NUMPY_RELEASE}, running "
            f"{_numpy_release()}; NumPy only guarantees stream stability "
            "within a release line"
        )


class TestLoopEngineDigests:
    def test_every_case_is_pinned(self):
        assert set(RUN_DIGESTS) == set(RUN_CASES)

    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_run_reproduces_pinned_digest(self, name):
        _skip_unless_pinned_numpy()
        assert digest(run_record(RUN_CASES[name])) == RUN_DIGESTS[name]

    def test_rows_reproduce_pinned_digest(self):
        _skip_unless_pinned_numpy()
        record = rows_record()
        assert len(record["rows"]) == len(ROW_POINTS) * 25
        assert digest(record) == ROWS_DIGEST

    @pytest.mark.parametrize("name", ["alpha0/m2", "alpha0/m3-shared"])
    def test_alpha0_cases_reach_the_uniform_fallback(self, name):
        # A step that ends with nobody committed makes the next pre-step
        # popularity uniform: the branch these cases exist to cover.
        case = RUN_CASES[name]
        uniform = [1.0 / len(case["qualities"])] * len(case["qualities"])
        runs = run_record(case)["runs"]
        assert any(uniform in run["popularities"][1:] for run in runs)


class _NegativeBinomial(np.random.Generator):
    """A generator whose stage-2 draw returns negative counts for every option."""

    def binomial(self, n, p, size=None):
        return super().binomial(n, p, size) - 100


class _NegativeOnBadSignals(np.random.Generator):
    """A generator whose stage-2 draw returns -1 for options with a bad signal.

    A step with one good and one bad signal then leaves a popularity with a
    negative entry, which the next multinomial draw rejects with an error
    of its own.
    """

    def binomial(self, n, p, size=None):
        return np.where(np.asarray(p) < 0.5, -1, super().binomial(n, p, size))


class TestChecksOnEngineDraws:
    """Checks that left the step still fire, with the errors they raised there."""

    @pytest.mark.parametrize("generator", [_NegativeBinomial, _NegativeOnBadSignals])
    def test_a_negative_count_is_rejected(self, generator):
        dynamics = FinitePopulationDynamics(
            15, 2, rng=generator(np.random.PCG64(5))
        )
        environment = BernoulliEnvironment([0.7, 0.4], rng=4)
        with pytest.raises(ValueError, match="counts must be non-negative"):
            dynamics.run(environment, 5)

    def test_a_count_above_the_population_is_rejected(self):
        class Inflating(np.random.Generator):
            def binomial(self, n, p, size=None):
                return super().binomial(n, p, size) + 100

        dynamics = FinitePopulationDynamics(
            15, 2, rng=Inflating(np.random.PCG64(5))
        )
        environment = BernoulliEnvironment([0.7, 0.4], rng=4)
        with pytest.raises(ValueError, match="exceeds population size 15"):
            dynamics.run(environment, 5)

    def test_a_negative_count_is_rejected_by_step(self):
        dynamics = FinitePopulationDynamics(
            15, 2, rng=_NegativeBinomial(np.random.PCG64(5))
        )
        with pytest.raises(ValueError, match="counts must be non-negative"):
            dynamics.step([1, 0])
