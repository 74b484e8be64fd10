"""Tiny ASCII line plots for the figure benchmarks' results files.

Not a plotting library — just enough to make ``results/figure*.txt``
readable as *figures* (the paper's curves) rather than bare tables, plus
the horizontal bars (:func:`ascii_bars`) behind the tracer's
flamegraph-style summaries.
"""

from __future__ import annotations

import math


def ascii_plot(
    series: dict,
    width: int = 64,
    height: int = 16,
    title: str = "",
    log_y: bool = False,
    x_labels: list | None = None,
) -> str:
    """Render named y-series (equal lengths) as an ASCII chart.

    ``series`` maps a label to its y values; points are marked with the
    label's first character.  ``log_y`` plots on a log scale (speedup and
    runtime curves span decades).
    """
    if not series:
        raise ValueError("need at least one series")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ValueError("all series must have the same length")
    n_points = lengths.pop()
    if n_points < 2:
        raise ValueError("need at least two points per series")

    def transform(v: float) -> float:
        if log_y:
            if v <= 0:
                raise ValueError("log plot needs positive values")
            return math.log10(v)
        return v

    values = [transform(v) for ys in series.values() for v in ys]
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0

    grid = [[" "] * width for _ in range(height)]
    for label, ys in series.items():
        mark = label[0]
        for i, y in enumerate(ys):
            col = round(i * (width - 1) / (n_points - 1))
            row = height - 1 - round((transform(y) - lo) / span * (height - 1))
            grid[row][col] = mark

    def fmt_axis(v: float) -> str:
        raw = 10**v if log_y else v
        if raw >= 1000:
            return f"{raw:,.0f}"
        return f"{raw:.2f}"

    lines = []
    if title:
        lines.append(title)
    axis_width = max(len(fmt_axis(hi)), len(fmt_axis(lo)))
    for r, row in enumerate(grid):
        if r == 0:
            label = fmt_axis(hi)
        elif r == height - 1:
            label = fmt_axis(lo)
        else:
            label = ""
        lines.append(f"{label:>{axis_width}} |" + "".join(row))
    lines.append(" " * axis_width + " +" + "-" * width)
    if x_labels:
        marks = [" "] * width
        text_line = [" "] * width
        for i, lbl in enumerate(x_labels):
            col = round(i * (width - 1) / (len(x_labels) - 1)) if len(x_labels) > 1 else 0
            s = str(lbl)
            col = min(col, width - len(s))  # keep the label fully visible
            for j, ch in enumerate(s):
                text_line[col + j] = ch
        lines.append(" " * axis_width + "  " + "".join(text_line))
    lines.append(
        "legend: " + ", ".join(f"{label[0]} = {label}" for label in series)
    )
    return "\n".join(lines)


#: characters in the longest of :func:`ascii_bars`' bars
BAR_WIDTH = 48


def ascii_bars(rows: dict, title: str = "") -> str:
    """Render named magnitudes as sorted horizontal bars (largest first).

    The flamegraph-style view of a trace: one row per label (a phase or a
    track), bar length proportional to its value, exact value printed at
    the end.  Zero and negative values get an empty bar.
    """
    if not rows:
        raise ValueError("need at least one row")
    top = max(max(rows.values()), 0.0) or 1.0
    label_w = max(len(str(label)) for label in rows)
    ordered = sorted(rows.items(), key=lambda kv: (-kv[1], kv[0]))
    lines = [title] if title else []
    for label, value in ordered:
        filled = round(max(value, 0.0) / top * BAR_WIDTH)
        bar = "#" * filled + "." * (BAR_WIDTH - filled)
        lines.append(f"{label:>{label_w}} |{bar}| {value:.3f}")
    return "\n".join(lines)
