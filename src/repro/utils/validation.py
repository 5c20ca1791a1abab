"""Argument validation helpers shared across the library.

Every public constructor validates its parameters eagerly so that
mis-configured experiments fail at construction time with a clear message
rather than deep inside a simulation loop.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative_int(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Validate that ``value`` lies inside the interval defined by ``low``/``high``."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    low_ok = value >= low if inclusive_low else value > low
    high_ok = value <= high if inclusive_high else value < high
    if not (low_ok and high_ok):
        left = "[" if inclusive_low else "("
        right = "]" if inclusive_high else ")"
        raise ValueError(f"{name} must be in {left}{low}, {high}{right}, got {value}")
    return value


def check_probability_vector(values: Sequence[float], name: str) -> np.ndarray:
    """Validate that ``values`` is a non-empty vector of probabilities summing to 1."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must contain only finite values")
    if (array < 0).any():
        raise ValueError(f"{name} must be non-negative")
    total = float(array.sum())
    # np.isclose(total, 1.0, atol=1e-8) at rtol=1e-5, without array dispatch.
    if not abs(total - 1.0) <= 1e-8 + 1e-5:
        raise ValueError(f"{name} must sum to 1, got sum={total}")
    return array


def check_probability_rows(matrix: np.ndarray, name: str) -> None:
    """:func:`check_probability_vector` on every row of a 2-D matrix at once.

    Raises the error of the first row that fails.
    """
    if len(matrix) and not (
        matrix.min() >= 0 and np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-8 + 1e-5
    ):
        for row in matrix:
            check_probability_vector(row, name)


def check_quality_vector(values: Sequence[float], name: str) -> np.ndarray:
    """Validate a vector of option qualities: each in [0, 1], non-empty."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if array.min() >= 0 and array.max() <= 1:
        return array  # a NaN fails the comparisons and takes the checks below
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must contain only finite values")
    if (array < 0).any() or (array > 1).any():
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return array
