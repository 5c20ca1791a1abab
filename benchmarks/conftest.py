"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's experiments (E1-E14), asserts
the paper's qualitative/quantitative claim, and writes its result table to
CSV, so the committed tables in ``benchmarks/results/`` can be re-derived
from a single run of::

    pytest benchmarks/ --benchmark-only

Output location: the *committed* reference tables live directly in
``benchmarks/results/``; ordinary benchmark runs write to the uncommitted
(gitignored) ``benchmarks/results/local/`` so that re-running the suite never
dirties the working tree with machine-dependent timings.  To intentionally
refresh the committed tables, point ``REPRO_BENCH_RESULTS_DIR`` at the
committed directory::

    REPRO_BENCH_RESULTS_DIR=benchmarks/results pytest benchmarks/ -q
"""

from __future__ import annotations

import gc
import os
import tracemalloc
from pathlib import Path

import pytest

from repro.experiments import ResultTable, write_csv

RESULTS_DIR = Path(__file__).parent / "results" / "local"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmark result tables are written.

    Defaults to the uncommitted ``benchmarks/results/local/``; override with
    the ``REPRO_BENCH_RESULTS_DIR`` environment variable (e.g. to refresh the
    committed reference tables in ``benchmarks/results/``).
    """
    override = os.environ.get("REPRO_BENCH_RESULTS_DIR")
    directory = Path(override) if override else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    return directory


@pytest.fixture
def traced_peak():
    """Callable: run ``fn()`` under tracemalloc, return ``(result, peak_bytes)``.

    Tracing slows allocation noticeably, so benchmarks measure memory in a
    *separate* pass from wall time — never mix the two in one run.
    """

    def _measure(fn):
        gc.collect()
        tracemalloc.start()
        try:
            result = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return _measure


@pytest.fixture
def save_results(results_dir):
    """Callable that persists a ResultTable and echoes it to stdout."""

    def _save(table: ResultTable, name: str) -> None:
        write_csv(table, results_dir / f"{name}.csv")
        print(f"\n=== {name} ===")
        print(table.to_text())

    return _save
