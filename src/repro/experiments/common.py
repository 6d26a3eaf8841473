"""Shared helpers for the experiment modules: table rendering."""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["render_table"]


def render_table(rows: Sequence[dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as an aligned text table.

    >>> print(render_table([{"a": 1, "b": "x"}]))
    a  b
    1  x
    """
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(str(col).ljust(w) for col, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(value.ljust(w) for value, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
