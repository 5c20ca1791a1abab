"""Replication statistics: means, confidence intervals, summaries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.utils.validation import check_in_range


def normal_confidence_interval(
    values: Iterable[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """Student-t confidence interval for the mean of ``values``.

    With a single value, or values that are all equal, the interval
    degenerates to ``(mean, mean)``.  A 95% interval over at most 129 values
    reads its quantile from :data:`repro.analysis.student_t.T_975`, a table
    written from ``scipy.special.stdtrit``; any other size or confidence
    imports ``scipy.special`` and calls ``stdtrit`` itself.  Either way the
    interval is bit-identical to ``stats.t.ppf(q, df) * stats.sem(values)``.
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("values must be non-empty")
    confidence = check_in_range(
        confidence, "confidence", 0.0, 1.0, inclusive_low=False, inclusive_high=False
    )
    mean = float(array.mean())
    if array.size == 1:
        return mean, mean
    # Bit-identical to ``stats.t.ppf(q, df) * stats.sem(array)`` without the
    # slow scipy.stats import in every process: ``t.ppf`` is ``stdtrit`` and
    # ``sem`` divides by ``n ** 0.5`` (``np.sqrt`` can differ in the last bit).
    sem = float(array.std(ddof=1) / array.size**0.5)
    if sem == 0.0:
        return mean, mean
    from repro.analysis.student_t import T_975

    df = array.size - 1
    if confidence == 0.95 and df <= len(T_975):
        quantile = T_975[df - 1]
    else:
        from scipy.special import stdtrit

        quantile = stdtrit(df, 0.5 + confidence / 2.0)
    margin = float(quantile * sem)
    return mean - margin, mean + margin


@dataclass(frozen=True)
class ReplicationSummary:
    """Mean, spread and confidence interval of a scalar metric over replications."""

    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    replications: int

    def as_dict(self) -> dict:
        """Summary as a plain dict for result tables."""
        return {
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "replications": self.replications,
        }


def summarize_replications(
    values: Iterable[float], confidence: float = 0.95
) -> ReplicationSummary:
    """Summarise a per-replication scalar metric."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("values must be non-empty")
    ci_low, ci_high = normal_confidence_interval(array, confidence=confidence)
    return ReplicationSummary(
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        maximum=float(array.max()),
        ci_low=ci_low,
        ci_high=ci_high,
        replications=int(array.size),
    )
