"""Plain-text plotting and table formatting.

The execution environment for this reproduction has no plotting stack
(matplotlib is not installable offline), so experiment results are rendered as
aligned text tables and simple ASCII charts.  The CSV writers in
:mod:`repro.experiments.io` produce machine-readable output for external
plotting.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    *,
    float_format: str = "{:.4f}",
) -> str:
    """Render a list of dict rows as an aligned, pipe-separated text table.

    Parameters
    ----------
    rows:
        Sequence of mappings; each mapping is one table row.
    columns:
        Column order.  Defaults to the keys of the first row.
    float_format:
        Format applied to float cells.
    """
    if not rows:
        return "(empty table)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, float) or isinstance(value, np.floating):
            return float_format.format(float(value))
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(cells[i]) for cells in rendered))
        for i, col in enumerate(columns)
    ]
    header = " | ".join(str(col).ljust(width) for col, width in zip(columns, widths))
    separator = "-+-".join("-" * width for width in widths)
    body = "\n".join(
        " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))
        for cells in rendered
    )
    return f"{header}\n{separator}\n{body}"


def ascii_line_plot(
    series: Mapping[str, Sequence[float]],
    *,
    width: int = 70,
    height: int = 16,
    title: str = "",
) -> str:
    """Render one or more numeric series as a crude ASCII line chart.

    Each series is resampled to ``width`` columns; series are distinguished by
    the marker characters ``* + o x # @``.
    """
    if not series:
        return "(no series)"
    markers = "*+ox#@"
    arrays = {name: np.asarray(values, dtype=float) for name, values in series.items()}
    arrays = {name: arr for name, arr in arrays.items() if arr.size > 0}
    if not arrays:
        return "(no data)"
    global_min = min(float(np.nanmin(arr)) for arr in arrays.values())
    global_max = max(float(np.nanmax(arr)) for arr in arrays.values())
    if not np.isfinite(global_min) or not np.isfinite(global_max):
        return "(non-finite data)"
    if np.isclose(global_min, global_max):
        global_max = global_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for index, (name, values) in enumerate(arrays.items()):
        marker = markers[index % len(markers)]
        legend.append(f"{marker} = {name}")
        positions = np.linspace(0, len(values) - 1, width)
        resampled = np.interp(positions, np.arange(len(values)), values)
        for col, value in enumerate(resampled):
            if not np.isfinite(value):
                continue
            fraction = (value - global_min) / (global_max - global_min)
            row = height - 1 - int(round(fraction * (height - 1)))
            row = min(max(row, 0), height - 1)
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"max = {global_max:.4g}")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f"min = {global_min:.4g}")
    lines.append("   ".join(legend))
    return "\n".join(lines)
