"""Plain-text and CSV reporting: the tables/series the paper's figures plot."""

from __future__ import annotations

import csv
import io
from typing import Any, Iterable, Sequence

__all__ = ["format_table", "format_series", "to_csv", "write_csv"]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = ""
) -> str:
    """Fixed-width table (markdown-ish) for terminal output."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[Any], ys: Sequence[float]) -> str:
    """One figure series as ``name: (x, y) ...`` pairs."""
    pairs = "  ".join(f"({x}, {_fmt(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def to_csv(headers: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The same table as CSV text (full float precision, for plotting)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def write_csv(
    path: str, headers: Sequence[str], rows: Iterable[Sequence[Any]]
) -> None:
    """Write the table to ``path`` as CSV."""
    with open(path, "w", newline="") as fh:
        fh.write(to_csv(headers, rows))


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
