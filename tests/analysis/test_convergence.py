"""Tests for convergence detection."""

import numpy as np
import pytest

from repro.analysis import dominance_time


class TestDominanceTime:
    def test_first_crossing(self):
        series = np.array([0.2, 0.4, 0.6, 0.7])
        assert dominance_time(series, threshold=0.5) == 2

    def test_never_crossing(self):
        assert dominance_time(np.array([0.1, 0.2, 0.3]), threshold=0.5) is None

    def test_sustain_requirement(self):
        series = np.array([0.6, 0.3, 0.6, 0.7, 0.8])
        assert dominance_time(series, threshold=0.5, sustain=1) == 0
        assert dominance_time(series, threshold=0.5, sustain=2) == 2

    def test_sustain_longer_than_series(self):
        assert dominance_time(np.array([0.9, 0.9]), threshold=0.5, sustain=5) is None

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dominance_time(np.array([[0.5]]), threshold=0.5)
        with pytest.raises(ValueError):
            dominance_time(np.array([0.5]), threshold=1.5)
        with pytest.raises(ValueError):
            dominance_time(np.array([0.5]), sustain=0)
