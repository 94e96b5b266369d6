"""Tiny dependency-free ASCII charts for CLI output.

Just enough plotting to eyeball the paper's curves in a terminal: an XY
line chart (Figure 1's latency curves).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def line_chart(series: Dict[str, Sequence[Tuple[float, float]]],
               width: int = 60, height: int = 16,
               x_label: str = "", y_label: str = "") -> str:
    """Render one or more (x, y) series as an ASCII chart.

    Args:
        series: label -> [(x, y), ...]. Each series gets its own marker
            character, assigned in order: ``* + o x @``.
        width / height: Plot area in characters.
        x_label / y_label: Axis captions.
    """
    if not series or all(not points for points in series.values()):
        raise ValueError("need at least one non-empty series")
    if width < 10 or height < 4:
        raise ValueError("chart too small to draw")

    markers = "*+ox@"
    all_points = [point for points in series.values() for point in points]
    x_low = min(x for x, _ in all_points)
    x_high = max(x for x, _ in all_points)
    y_low = min(y for _, y in all_points)
    y_high = max(y for _, y in all_points)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for index, (label, points) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in points:
            column = round((x - x_low) / x_span * (width - 1))
            row = height - 1 - round((y - y_low) / y_span * (height - 1))
            grid[row][column] = marker

    lines = []
    y_top = f"{y_high:.6g}"
    y_bottom = f"{y_low:.6g}"
    gutter = max(len(y_top), len(y_bottom)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = y_top.rjust(gutter)
        elif row_index == height - 1:
            prefix = y_bottom.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * gutter + "+" + "-" * width)
    x_axis = (f"{x_low:.6g}".ljust(width - 8) + f"{x_high:.6g}".rjust(8))
    lines.append(" " * (gutter + 1) + x_axis)
    if x_label or y_label:
        lines.append(" " * (gutter + 1)
                     + f"x: {x_label}   y: {y_label}".strip())
    legend = "   ".join(f"{markers[i % len(markers)]} {label}"
                        for i, label in enumerate(series))
    lines.append(" " * (gutter + 1) + legend)
    return "\n".join(lines)

