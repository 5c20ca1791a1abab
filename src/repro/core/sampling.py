"""Sampling rules — stage (1) of the distributed learning dynamics.

At each step, an individual obtains an option to *consider*: with probability
``mu`` it explores (picks an option uniformly at random) and with probability
``1 - mu`` it copies the choice of a uniformly random member of the group from
the previous step.  At the population level the probability that an individual
considers option ``j`` is therefore

    ``(1 - mu) * Q^t_j + mu / m``                                   (Eq. 2)

where ``Q^t`` is the popularity distribution.  :class:`MixtureSampling`
implements this rule; :class:`UniformSampling` (``mu = 1``) and
:class:`PopularityOnlySampling` (``mu = 0``) are the two ablation endpoints
discussed in Section 3.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.utils.validation import check_probability, check_probability_vector


def default_exploration_rate(adoption_rule):
    """The default ``mu`` for a given adoption rule: the theorem maximum.

    Returns ``min(1, delta^2 / 6)`` — the largest exploration rate the
    paper's theorems allow — or ``0.01`` when ``delta`` is degenerate
    (zero or infinite).  Every engine derives its default sampling rule
    from this one function so they stay exact-seed equivalent.

    For a per-row rule (:class:`~repro.core.adoption.RowwiseAdoptionRule`,
    whose ``delta`` is a shape-``(R,)`` array) the same formula is applied
    elementwise and an array of per-row rates is returned.
    """
    delta = adoption_rule.delta
    if isinstance(delta, float):
        # The same arithmetic on one float, without the array round trip.
        if math.isfinite(delta) and delta > 0:
            return float(min(1.0, delta * delta / 6.0))
        return 0.01
    delta = np.asarray(delta, dtype=float)
    with np.errstate(invalid="ignore"):
        rates = np.where(
            np.isfinite(delta) & (delta > 0),
            np.minimum(1.0, np.where(np.isfinite(delta), delta, 0.0) ** 2 / 6.0),
            0.01,
        )
    if rates.ndim == 0:
        return float(rates)
    return rates


def check_popularity_rows(popularities: np.ndarray) -> None:
    """Raise unless every row (last axis) of ``popularities`` is a probability vector."""
    if np.any(popularities < 0) or not np.allclose(
        popularities.sum(axis=-1), 1.0, atol=1e-8
    ):
        raise ValueError("every row of popularities must be a probability vector")


def _as_popularity_matrix(popularities: np.ndarray) -> np.ndarray:
    popularities = np.asarray(popularities, dtype=float)
    if popularities.ndim != 2:
        raise ValueError(
            f"popularities must be a 2-D (R, m) matrix, got shape "
            f"{popularities.shape}"
        )
    return popularities


class SamplingRule(abc.ABC):
    """Maps the current popularity distribution to consideration probabilities."""

    @abc.abstractmethod
    def consideration_probabilities(self, popularity: np.ndarray) -> np.ndarray:
        """Per-option probability that a single individual considers each option.

        Parameters
        ----------
        popularity:
            The popularity distribution ``Q^t`` (a probability vector of
            length ``m``).

        Returns
        -------
        numpy.ndarray
            A probability vector of length ``m``.
        """

    def _consider(self, popularity: np.ndarray) -> np.ndarray:
        """:meth:`consideration_probabilities` of a popularity its caller checks.

        The loop engine checks the popularities it derives from its own
        counts once per run; a rule whose check is a cost of its own skips it
        here.
        """
        return self.consideration_probabilities(popularity)

    def _consider_batch(self, popularities: np.ndarray) -> np.ndarray:
        """:meth:`consideration_probabilities_batch` of popularities its caller checks.

        The batched engine checks the popularities it derives from its own
        counts once per run, as the loop engine does with :meth:`_consider`.
        """
        return self.consideration_probabilities_batch(popularities)

    def consideration_probabilities_batch(self, popularities: np.ndarray) -> np.ndarray:
        """Row-wise :meth:`consideration_probabilities` over an ``(R, m)`` matrix.

        Each row of ``popularities`` is the popularity distribution of one
        independent replicate.  The default implementation applies the scalar
        rule row by row; subclasses with a closed-form rule (notably
        :class:`MixtureSampling`) override it with a single vectorised pass
        whose per-row arithmetic is bit-identical to the scalar path, which is
        what makes exact-seed equivalence between the batched and sequential
        engines possible.
        """
        popularities = _as_popularity_matrix(popularities)
        return np.stack(
            [self.consideration_probabilities(row) for row in popularities]
        )

    @property
    @abc.abstractmethod
    def exploration_rate(self) -> float:
        """The uniform-exploration weight ``mu``."""

    def minimum_consideration_probability(self, num_options: int) -> float:
        """Lower bound ``mu / m`` on any option's consideration probability."""
        return self.exploration_rate / num_options

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mu = np.asarray(self.exploration_rate)
        if mu.ndim == 0:
            return f"{type(self).__name__}(mu={float(mu):.4f})"
        return (
            f"{type(self).__name__}(R={mu.size}, "
            f"mu∈[{mu.min():.4f}, {mu.max():.4f}])"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SamplingRule):
            return NotImplemented
        mine = np.asarray(self.exploration_rate)
        theirs = np.asarray(other.exploration_rate)
        if mine.shape != theirs.shape:
            return False
        return bool(np.all(np.isclose(mine, theirs)))

    def __hash__(self) -> int:
        return hash(
            (
                type(self).__name__,
                np.round(np.asarray(self.exploration_rate), 12).tobytes(),
            )
        )


class MixtureSampling(SamplingRule):
    """The paper's sampling rule: uniform with weight ``mu``, popularity otherwise.

    ``mu`` may also be a shape-``(R,)`` array of per-row exploration rates for
    the batched engine's sweep-axis mode: row ``r`` of a batch then mixes with
    weight ``mu_r``.  A per-row rule only supports the batched path
    (:meth:`consideration_probabilities_batch` with exactly ``R`` rows); the
    scalar :meth:`consideration_probabilities` raises for it.
    """

    def __init__(self, mu) -> None:
        if np.ndim(mu) == 0:
            self._mu = check_probability(mu, "mu")
        else:
            mu = np.asarray(mu, dtype=float)
            if mu.ndim != 1 or mu.size == 0:
                raise ValueError("per-row mu must be a non-empty 1-D (R,) array")
            if not np.all(np.isfinite(mu)):
                raise ValueError("every per-row mu must be finite")
            if np.any(mu < 0) or np.any(mu > 1):
                raise ValueError("every per-row mu must lie in [0, 1]")
            self._mu = mu.copy()
            self._mu.setflags(write=False)

    @property
    def exploration_rate(self):
        """The uniform-exploration weight ``mu`` (float, or ``(R,)`` array per-row)."""
        return self._mu

    @property
    def is_rowwise(self) -> bool:
        """Whether this rule carries per-row exploration rates."""
        return not isinstance(self._mu, float)

    @property
    def num_rows(self) -> int:
        """Number of parameter rows ``R`` (1 for a scalar rule)."""
        return int(np.asarray(self._mu).size) if self.is_rowwise else 1

    def consideration_probabilities(self, popularity: np.ndarray) -> np.ndarray:
        if self.is_rowwise:
            raise ValueError(
                "per-row MixtureSampling has no single-replicate rule; use "
                "consideration_probabilities_batch with an (R, m) matrix"
            )
        return self._consider(check_probability_vector(popularity, "popularity"))

    def _consider(self, popularity: np.ndarray) -> np.ndarray:
        if self.is_rowwise:
            return self.consideration_probabilities(popularity)
        probabilities = (1.0 - self._mu) * popularity + self._mu / popularity.size
        # Guard against floating-point drift so downstream multinomial draws
        # always receive an exact probability vector.
        return probabilities / probabilities.sum()

    def consideration_probabilities_batch(self, popularities: np.ndarray) -> np.ndarray:
        popularities = _as_popularity_matrix(popularities)
        check_popularity_rows(popularities)
        return self._consider_batch(popularities)

    def _consider_batch(self, popularities: np.ndarray) -> np.ndarray:
        num_options = popularities.shape[1]
        if self.is_rowwise:
            if popularities.shape[0] != self._mu.size:
                raise ValueError(
                    f"per-row mu has {self._mu.size} rows but popularities has "
                    f"{popularities.shape[0]}"
                )
            mu = self._mu[:, None]
        else:
            mu = self._mu
        probabilities = (1.0 - mu) * popularities + mu / num_options
        return probabilities / probabilities.sum(axis=1, keepdims=True)


class UniformSampling(MixtureSampling):
    """Pure independent exploration (``mu = 1``): the adoption-only ablation."""

    def __init__(self) -> None:
        super().__init__(mu=1.0)


class PopularityOnlySampling(MixtureSampling):
    """Pure imitation (``mu = 0``).

    Without the exploration floor the popularity of an option can hit zero and
    never recover; the paper's analysis crucially relies on ``mu > 0`` and the
    ablation benchmarks use this class to demonstrate why.
    """

    def __init__(self) -> None:
        super().__init__(mu=0.0)
