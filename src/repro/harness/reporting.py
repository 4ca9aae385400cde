"""Markdown table formatting and the two averages the figures use."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def render_value(value) -> str:
    """One number as every table, summary line and verdict prints it."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, tuple):
        return " / ".join(render_value(v) for v in value)
    return str(value)


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    note: str = "",
) -> str:
    """Render a Markdown table under a ``##`` title, with an optional footnote.

    Cells are padded to the column width, so the source reads as an
    aligned table too.
    """
    rendered: List[List[str]] = [[render_value(c) for c in row] for row in rows]
    widths = [max(3, len(h)) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(
            cell.rjust(widths[i]) for i, cell in enumerate(cells)
        ) + " |"

    lines = [f"## {title}", "", fmt_row(headers)]
    lines.append(fmt_row(["-" * (w - 1) + ":" for w in widths]))
    lines.extend(fmt_row(row) for row in rendered)
    if note:
        lines += ["", note]
    return "\n".join(lines)


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (0 for an empty sequence).

    A non-positive entry is a broken cell, not a value to average around:
    it raises instead of vanishing from the mean.
    """
    vals = list(values)
    if any(v <= 0 for v in vals):
        raise ValueError(f"geomean of a non-positive value in {vals}")
    if not vals:
        return 0.0
    product = 1.0
    for v in vals:
        product *= v
    return product ** (1.0 / len(vals))


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0
