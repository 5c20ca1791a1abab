"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adoption import SymmetricAdoptionRule
from repro.core.sampling import MixtureSampling
from repro.environments import BernoulliEnvironment


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_environment() -> BernoulliEnvironment:
    """Three options with a clear best (gap 0.3), deterministic seed."""
    return BernoulliEnvironment([0.8, 0.5, 0.5], rng=7)


@pytest.fixture
def two_option_environment() -> BernoulliEnvironment:
    """Two options with a large gap, deterministic seed."""
    return BernoulliEnvironment([0.9, 0.4], rng=11)


@pytest.fixture
def adoption_rule() -> SymmetricAdoptionRule:
    """The paper's default symmetric adoption rule with beta = 0.6."""
    return SymmetricAdoptionRule(0.6)


@pytest.fixture
def sampling_rule() -> MixtureSampling:
    """Mixture sampling with a small exploration rate."""
    return MixtureSampling(0.02)


class PerAgentStageOne:
    """The batched network engine's stage 1 written as per-agent loops.

    An implementation independent of the engine's CSR gather + bincount and
    of its plane-wise CDF comparison: every agent walks its own neighbour
    list, tallies the committed choices, and picks the first option whose
    running tally exceeds ``u * total`` (``m - 1`` if none does, which is
    also the pick of an agent with no committed neighbour).  The two methods
    take the arguments of ``committed_neighbor_counts`` and
    ``_inverse_cdf_rows``, so either may stand in for its engine twin.
    Loops make it slow: it is meant for networks of a few hundred agents.
    """

    @staticmethod
    def neighbor_counts(network, choices, num_options):
        counts = np.zeros((*choices.shape, num_options), dtype=np.int64)
        for replicate, row in enumerate(choices.tolist()):
            for agent in range(network.size):
                tally = [0] * num_options
                for neighbour in network.neighbors(agent).tolist():
                    if row[neighbour] >= 0:
                        tally[row[neighbour]] += 1
                counts[replicate, agent] = tally
        return counts

    @staticmethod
    def inverse_cdf_rows(counts, uniforms):
        totals = counts.sum(axis=-1)
        picks = np.empty(totals.shape, dtype=np.int64)
        for index in np.ndindex(totals.shape):
            target = uniforms[index] * totals[index]
            pick = counts.shape[-1] - 1
            running = 0
            for option, count in enumerate(counts[index].tolist()):
                running += count
                if target < running:
                    pick = option
                    break
            picks[index] = pick
        return picks, totals

    @classmethod
    def pick(cls, network, choices, uniforms, num_options):
        """``(picks, totals)`` of one stage-1 draw for every agent."""
        counts = cls.neighbor_counts(network, choices, num_options)
        return cls.inverse_cdf_rows(counts, uniforms)


@pytest.fixture(scope="session")
def per_agent_stage_one() -> type[PerAgentStageOne]:
    """The per-agent reference of the network engine's stage 1."""
    return PerAgentStageOne
