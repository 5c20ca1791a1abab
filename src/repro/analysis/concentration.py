"""Multiplicative closeness, the ``A ~c B`` relation of Definition 4.1."""

from __future__ import annotations

import numpy as np


def multiplicative_deviation(a: np.ndarray | float, b: np.ndarray | float) -> float:
    """The smallest ``c >= 1`` such that ``A ~c B`` in the sense of Definition 4.1.

    Definition 4.1: ``A ~c B`` means ``1/c <= A/B <= c``.  For vectors the
    worst entry is returned.  Pairs where both entries are zero are treated as
    perfectly close; pairs where exactly one is zero give ``inf``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("multiplicative closeness is defined for non-negative values")
    worst = 1.0
    for x, y in zip(a.ravel(), b.ravel()):
        if x == 0.0 and y == 0.0:
            continue
        if x == 0.0 or y == 0.0:
            return float("inf")
        worst = max(worst, x / y, y / x)
    return float(worst)
