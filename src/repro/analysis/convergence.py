"""Convergence detection on the best option's popularity series."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_in_range, check_positive_int


def dominance_time(
    best_option_series: np.ndarray,
    threshold: float = 0.5,
    *,
    sustain: int = 1,
) -> Optional[int]:
    """First step at which the best option's share reaches ``threshold`` and stays
    there for ``sustain`` consecutive steps.

    Returns ``None`` if dominance is never (sustainedly) reached.  The paper
    stresses that the finite dynamics is non-monotone — popularity can dip
    after reaching dominance — so ``sustain > 1`` gives a more robust notion.
    """
    series = np.asarray(best_option_series, dtype=float)
    if series.ndim != 1:
        raise ValueError("best_option_series must be 1-D")
    threshold = check_in_range(threshold, "threshold", 0.0, 1.0)
    sustain = check_positive_int(sustain, "sustain")
    above = series >= threshold
    run = 0
    for index, flag in enumerate(above):
        run = run + 1 if flag else 0
        if run >= sustain:
            return index - sustain + 1
    return None
