"""Plain-ASCII tables for benchmark output.

The paper has no numbered tables; our benchmark suite generates one table
per theorem (see DESIGN.md's experiment index).  This renderer keeps the
output dependency-free and diff-friendly so EXPERIMENTS.md can embed the
results verbatim.
"""

from __future__ import annotations

from typing import Any, List, Sequence


class Table:
    """A simple column-aligned text table.

    Examples
    --------
    >>> t = Table(["k", "samples", "error"], title="demo")
    >>> t.add_row([8, 120, "0.10 [0.05, 0.18]"])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    demo
    k | samples | error
    --+---------+------------------
    8 | 120     | 0.10 [0.05, 0.18]
    """

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ValueError("table needs at least one column")
        self.columns = [str(c) for c in columns]
        self.title = title
        self.rows: List[List[str]] = []

    def add_row(self, values: Sequence[Any]) -> None:
        """Append a row (stringified); must match the column count."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([_format(v) for v in values])

    def render(self) -> str:
        """Render the table as aligned ASCII text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(header.rstrip())
        lines.append(rule)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table (with a leading blank line)."""
        print()
        print(self.render())


def _format(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
