"""Plain-text table rendering.

The benchmark harness regenerates the paper's Tables 1-4 and the data series
behind Figures 5-7; this module renders those results as aligned monospace
tables so that a bench run prints rows directly comparable with the paper.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}".rstrip("0").rstrip(".") if cell == cell else "nan"
    return str(cell)


@dataclass(frozen=True)
class Table:
    """One report table: built once, rendered for the console or as markdown.

    Both renderers print the same cell strings (floats trimmed to three
    decimals), so a console table and its ``--report`` twin cannot drift.
    """

    headers: Sequence[str]
    rows: Sequence[Sequence[object]]
    title: str | None = None

    def cells(self) -> list[list[str]]:
        """The body cells as printed; rejects rows of the wrong width."""
        ncols = len(self.headers)
        materialized = [[_stringify(cell) for cell in row] for row in self.rows]
        for row in materialized:
            if len(row) != ncols:
                raise ValueError(
                    f"row has {len(row)} cells but the table has {ncols} columns: {row}"
                )
        return materialized

    def text(self) -> str:
        """An aligned monospace table under the title.

        Column widths adapt to the content; numeric cells are
        right-aligned, text cells left-aligned.
        """
        materialized = self.cells()
        widths = [len(h) for h in self.headers]
        for row in materialized:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def is_numeric(text: str) -> bool:
            stripped = text.rstrip("%")
            try:
                float(stripped)
            except ValueError:
                return False
            return True

        def fmt_row(cells: Sequence[str]) -> str:
            parts = []
            for i, cell in enumerate(cells):
                if is_numeric(cell):
                    parts.append(cell.rjust(widths[i]))
                else:
                    parts.append(cell.ljust(widths[i]))
            return "| " + " | ".join(parts) + " |"

        separator = "+-" + "-+-".join("-" * w for w in widths) + "-+"
        lines = [self.title] if self.title else []
        lines += [separator, fmt_row(self.headers), separator]
        lines += [fmt_row(row) for row in materialized]
        lines.append(separator)
        return "\n".join(lines)

    def markdown(self) -> str:
        """A markdown pipe table (the title is the document's to place)."""
        rule = ["---"] * len(self.headers)
        return "\n".join(
            "| " + " | ".join(row) + " |"
            for row in [list(self.headers), rule, *self.cells()]
        )


def markdown_document(title: str, blocks: Iterable[str]) -> str:
    """A markdown document: the H1, then blank-line-separated blocks."""
    return "\n\n".join([f"# {title}", *blocks]) + "\n"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """``Table(headers, rows, title).text()`` for callers that hold rows."""
    return Table(headers, list(rows), title).text()

