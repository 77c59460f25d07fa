"""ASCII tables for benchmark output.

The experiments print the same rows the paper's figures plot; one
table class keeps that output consistent and parseable.
"""

from __future__ import annotations

from typing import Any, List, Sequence

__all__ = ["Table"]


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
            max([len(self.columns[i])] + [len(r[i]) for r in self.rows])
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
