"""ASCII tables and series for benchmark output.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output consistent and parseable.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["Table", "Series", "format_gbps", "format_pct"]

# ``summarize_latencies`` returns NaN for empty samples (e.g. GridFTP
# runs that never record per-block latency); render those cells as an
# em-dash instead of "    nan".


def format_gbps(value: float) -> str:
    if value is None or math.isnan(value):
        return "—".rjust(7)
    return f"{value:7.2f}"


def format_pct(value: float) -> str:
    if value is None or math.isnan(value):
        return "—".rjust(7)
    return f"{value:6.1f}%"


class Table:
    """A fixed-column ASCII table."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        head = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        body = "\n".join(
            " | ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in self.rows
        )
        parts = [f"== {self.title} ==", head, sep]
        if body:
            parts.append(body)
        return "\n".join(parts)

    def print(self) -> None:
        print("\n" + self.render())


class Series:
    """A labelled (x, y) series — one curve of a paper figure."""

    def __init__(self, label: str, x_name: str = "x", y_name: str = "y") -> None:
        self.label = label
        self.x_name = x_name
        self.y_name = y_name
        self.points: List[Dict[str, float]] = []

    def add(self, x: float, y: float, **extra: float) -> None:
        self.points.append({self.x_name: x, self.y_name: y, **extra})

    def xs(self) -> List[float]:
        return [p[self.x_name] for p in self.points]

    def y_at(self, x: float) -> Optional[float]:
        for p in self.points:
            if p[self.x_name] == x:
                return p[self.y_name]
        return None

    def render(self) -> str:
        pts = "  ".join(
            f"({p[self.x_name]:g}, {p[self.y_name]:.2f})" for p in self.points
        )
        return f"{self.label}: {pts}"
