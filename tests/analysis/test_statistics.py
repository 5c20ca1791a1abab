"""Tests for replication statistics."""

import sys

import numpy as np
import pytest
from scipy import special, stats

from repro.analysis import normal_confidence_interval, summarize_replications
from repro.analysis.student_t import SCIPY_RELEASE, T_975


class TestNormalConfidenceInterval:
    def test_contains_mean(self):
        low, high = normal_confidence_interval([1.0, 2.0, 3.0, 4.0])
        assert low <= 2.5 <= high

    def test_single_value_degenerate(self):
        assert normal_confidence_interval([5.0]) == (5.0, 5.0)

    def test_constant_values_zero_width(self):
        low, high = normal_confidence_interval([2.0, 2.0, 2.0])
        assert low == high == pytest.approx(2.0)

    def test_wider_at_higher_confidence(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        low95, high95 = normal_confidence_interval(values, confidence=0.95)
        low99, high99 = normal_confidence_interval(values, confidence=0.99)
        assert (high99 - low99) > (high95 - low95)

    def test_coverage_simulation(self):
        """~95% of intervals should cover the true mean."""
        rng = np.random.default_rng(0)
        covered = 0
        trials = 300
        for _ in range(trials):
            sample = rng.normal(0.0, 1.0, size=20)
            low, high = normal_confidence_interval(sample, confidence=0.95)
            covered += low <= 0.0 <= high
        assert covered / trials > 0.9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            normal_confidence_interval([])
        with pytest.raises(ValueError):
            normal_confidence_interval([1.0, 2.0], confidence=1.0)


class TestMatchesScipyStats:
    """Computed without ``scipy.stats``, yet equal to it bit for bit."""

    # 129 and 130: the last 95% table entry (df 128) and the first size past it.
    SIZES = [*range(2, 65), 100, 129, 130, 1000, 2921]

    @staticmethod
    def _sample(n):
        return np.random.default_rng(n).random(n)

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_equals_t_ppf_times_sem(self, confidence):
        for n in self.SIZES:
            sample = self._sample(n)
            mean = float(sample.mean())
            quantile = stats.t.ppf(0.5 + confidence / 2.0, n - 1)
            margin = float(quantile * stats.sem(sample))
            expected = (mean - margin, mean + margin)
            assert normal_confidence_interval(sample, confidence) == expected, n

    def test_sizes_include_a_sqrt_pow_disagreement(self):
        # At n = 2921, np.sqrt(n) and n ** 0.5 differ in the last bit and so
        # do the SEMs they give; stats.sem divides by n ** 0.5.
        n = 2921
        std = self._sample(n).std(ddof=1)
        assert n in self.SIZES
        assert np.sqrt(n) != n**0.5
        assert std / np.sqrt(n) != std / n**0.5
        assert float(stats.sem(self._sample(n))) == std / n**0.5


class TestStudentTTable:
    def test_every_entry_equals_stdtrit(self):
        assert len(T_975) == 128
        for df, quantile in enumerate(T_975, start=1):
            expected = float(special.stdtrit(df, 0.975))
            assert quantile == expected, (
                f"T_975 at df {df} reads {quantile!r}, stdtrit gives {expected!r}; "
                f"the table was written from scipy {SCIPY_RELEASE}"
            )

    def test_interval_reads_the_table_without_scipy(self, monkeypatch):
        # The table is the only quantile source for these sizes: a scipy
        # import would raise.
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        for n in (2, 12, 129):
            sample = np.random.default_rng(n).random(n)
            margin = T_975[n - 2] * float(sample.std(ddof=1) / n**0.5)
            mean = float(sample.mean())
            assert normal_confidence_interval(sample) == (mean - margin, mean + margin)
        with pytest.raises(ImportError):
            normal_confidence_interval(np.arange(130.0))
        with pytest.raises(ImportError):
            normal_confidence_interval([1.0, 2.0, 4.0], confidence=0.9)


class TestSummarizeReplications:
    def test_fields(self):
        summary = summarize_replications([1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.replications == 3
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_single_replication(self):
        summary = summarize_replications([7.0])
        assert summary.std == 0.0
        assert summary.ci_low == summary.ci_high == 7.0

    def test_as_dict_keys(self):
        summary = summarize_replications([1.0, 2.0])
        assert {"mean", "std", "min", "max", "ci_low", "ci_high", "replications"} == set(
            summary.as_dict()
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_replications([])
