"""Plain-text rendering for experiment reports.

The paper's figures are latency-percentile curves and scaling series;
these helpers print the same data as aligned tables and log-scale ASCII
charts so a terminal run of the bench suite reads like the evaluation
section.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Align a simple table; floats get compact rendering."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 10:
                return f"{value:.1f}"
            return f"{value:.2f}"
        return str(value)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.rjust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def drop_column(
    headers: Sequence[str], rows: Sequence[Sequence[object]], index: int
) -> tuple[list[str], list[list[object]]]:
    """A table without one column (e.g. a wall-clock rate that must not
    reach a tracked report)."""
    return (
        [*headers[:index], *headers[index + 1:]],
        [[*row[:index], *row[index + 1:]] for row in rows],
    )


def format_percentile_table(
    series: Mapping[str, Mapping[float, float]],
    grid: Sequence[float],
) -> str:
    """One row per series, one column per percentile (latency ms)."""
    headers = ["series"] + [f"p{p:g}" for p in grid]
    rows = []
    for name, values in series.items():
        rows.append([name] + [values.get(p, float("nan")) for p in grid])
    return format_table(headers, rows)


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    x_labels: Sequence[str],
    height: int = 14,
    log_scale: bool = True,
    y_unit: str = "ms",
) -> str:
    """Log-scale multi-series chart, one glyph per series.

    Mirrors the paper's log-latency axes (Figures 8 and 9 span 0.1 ms to
    100 s). NaN/None points are skipped.
    """
    glyphs = "RABCDEFGH"
    points: list[tuple[int, int, str]] = []  # (col, row, glyph)
    values = [
        v
        for vs in series.values()
        for v in vs
        if v is not None and not math.isnan(v) and v > 0
    ]
    if not values:
        return "(no data)"
    low = min(values)
    high = max(values)
    if log_scale:
        lo = math.log10(low)
        hi = math.log10(high)
    else:
        lo, hi = low, high
    if hi - lo < 1e-9:
        hi = lo + 1.0

    def row_of(value: float) -> int:
        v = math.log10(value) if log_scale else value
        frac = (v - lo) / (hi - lo)
        return min(height - 1, max(0, int(round(frac * (height - 1)))))

    columns = len(x_labels)
    for index, (name, vs) in enumerate(series.items()):
        glyph = glyphs[index % len(glyphs)]
        for col, value in enumerate(vs):
            if value is None or (isinstance(value, float) and math.isnan(value)) or value <= 0:
                continue
            points.append((col, row_of(value), glyph))

    grid = [[" "] * columns for _ in range(height)]
    for col, row, glyph in points:
        current = grid[row][col]
        grid[row][col] = "*" if current not in (" ", glyph) else glyph

    lines = []
    for row in range(height - 1, -1, -1):
        if log_scale:
            label = 10 ** (lo + (hi - lo) * row / (height - 1))
        else:
            label = lo + (hi - lo) * row / (height - 1)
        lines.append(f"{label:>10.2f} | " + "  ".join(grid[row]))
    lines.append(" " * 10 + " +-" + "---" * columns)
    label_line = " " * 13
    for x_label in x_labels:
        label_line += f"{x_label:<3}"[:3]
    lines.append(label_line)
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={name}" for i, name in enumerate(series)
    )
    lines.append(f"   (y in {y_unit}, log scale)  {legend}")
    return "\n".join(lines)


def check_expectations(checks: Sequence[tuple[str, bool]]) -> list[str]:
    """Render pass/fail lines for paper-shape assertions."""
    return [
        f"  [{'PASS' if ok else 'FAIL'}] {description}" for description, ok in checks
    ]
