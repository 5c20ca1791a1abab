"""Tests for concentration utilities."""

import numpy as np
import pytest

from repro.analysis import multiplicative_deviation


class TestMultiplicativeCloseness:
    def test_identical_values(self):
        assert multiplicative_deviation(0.4, 0.4) == pytest.approx(1.0)

    def test_known_ratio(self):
        assert multiplicative_deviation(0.2, 0.1) == pytest.approx(2.0)
        assert multiplicative_deviation(0.1, 0.2) == pytest.approx(2.0)

    def test_vector_worst_case(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.25, 0.75])
        assert multiplicative_deviation(a, b) == pytest.approx(2.0)

    def test_zero_handling(self):
        assert multiplicative_deviation([0.0, 1.0], [0.0, 1.0]) == pytest.approx(1.0)
        assert np.isinf(multiplicative_deviation([0.0, 1.0], [0.5, 0.5]))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            multiplicative_deviation(-0.1, 0.5)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            multiplicative_deviation([0.5, 0.5], [1.0])
