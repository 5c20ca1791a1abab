"""Output invariants every benchmark request must satisfy.

The checks test invariants rather than golden numbers, so a change that
legitimately regenerates results (a new seeding scheme, a fused engine)
still passes, while a wrong row count, an out-of-range metric or a
non-reproducible answer fails the request.

Sweep and network rows report *expected* regret, ``eta_1 - <Q, eta>``, which
lies in ``[0, best - worst]``.  Protocol rows report *realised* regret,
``eta_1`` minus the mean Bernoulli reward, which lies in ``[eta_1 - 1, eta_1]``
and is negative when the group was lucky.
"""

from __future__ import annotations

import csv
import math
from typing import Any, Dict, Iterable, List, Sequence

from workloads import Payload, grid_points

Row = Dict[str, Any]

_EPS = 1e-9

#: Summary metrics a network/protocol request must report.
_SUMMARY_METRICS = {
    "network": ("regret", "best_option_share"),
    "protocol": ("regret", "best_option_share", "alive_fraction"),
}


def read_csv_rows(path) -> List[Row]:
    """Rows of a ``repro ... --output`` CSV, numeric cells as floats."""
    with open(path, newline="") as handle:
        return [
            {name: _number(value) for name, value in row.items()}
            for row in csv.DictReader(handle)
        ]


def _number(value: str) -> Any:
    try:
        return float(value)
    except ValueError:
        return value


def _in_range(value: Any, low: float, high: float) -> bool:
    return (
        isinstance(value, (int, float))
        and math.isfinite(value)
        and low - _EPS <= value <= high + _EPS
    )


def check_rows(payload: Payload, rows: Sequence[Row]) -> List[str]:
    """Problems with the result rows of one request (empty when they pass)."""
    options = payload["options"]
    if payload["kind"] == "protocol":
        regret_low, regret_high = max(options) - 1.0, max(options)
    else:
        regret_low, regret_high = 0.0, max(options) - min(options)
    problems: List[str] = []
    if payload["kind"] == "sweep":
        expected = grid_points(payload)
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows for {expected} grid points")
        for index, row in enumerate(rows):
            if not _in_range(row.get("regret"), regret_low, regret_high):
                problems.append(f"row {index}: regret {row.get('regret')!r}")
            if not _in_range(row.get("best_option_share"), 0.0, 1.0):
                problems.append(
                    f"row {index}: best_option_share {row.get('best_option_share')!r}"
                )
        return problems
    by_metric = {row.get("metric"): row for row in rows}
    for metric in _SUMMARY_METRICS[payload["kind"]]:
        row = by_metric.get(metric)
        if row is None:
            problems.append(f"missing {metric} row")
            continue
        low, high = (regret_low, regret_high) if metric == "regret" else (0.0, 1.0)
        for field in ("mean", "min", "max"):
            if not _in_range(row.get(field), low, high):
                problems.append(f"{metric} {field} {row.get(field)!r}")
    return problems


def check_campaign(spec: Dict[str, Any], node_rows: Dict[str, List[Row]]) -> List[str]:
    """Problems with one campaign's node results (empty when they pass)."""
    problems: List[str] = []
    simulate_rows = 0
    for node in spec["nodes"]:
        rows = node_rows.get(node["id"])
        if rows is None:
            problems.append(f"node {node['id']} missing")
            continue
        if node["kind"] == "simulate":
            simulate_rows += len(rows)
            problems.extend(
                f"{node['id']}: {problem}"
                for problem in check_rows(node["request"], rows)
            )
        elif node["kind"] == "analyse":
            metrics = [row.get("metric") for row in rows]
            if metrics != list(node["metrics"]):
                problems.append(f"analyse metrics {metrics}")
            for row in rows:
                if row.get("replications") != simulate_rows:
                    problems.append(
                        f"analyse pooled {row.get('replications')!r} of "
                        f"{simulate_rows} rows"
                    )
        elif len(rows) != len(node_rows.get("analyse", ())):
            problems.append(f"report has {len(rows)} rows")
    return problems


def mismatched_rows(first: Iterable[Row], second: Iterable[Row]) -> int:
    """Rows whose metrics differ between two answers to the same sweep."""
    first, second = list(first), list(second)
    count = abs(len(first) - len(second))
    for left, right in zip(first, second):
        if any(
            left.get(name) != right.get(name)
            for name in ("regret", "best_option_share")
        ):
            count += 1
    return count
