"""Plain-text figure rendering.

Terminal-friendly renderings of wear data — one-line sparklines for the
report's wear-evolution series and a per-block heat map — so a report or
an example can *show* the shape without a plotting dependency.
"""

from __future__ import annotations

from collections.abc import Sequence

_SPARKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Compress a numeric series into one line of block characters."""
    if not values:
        raise ValueError("no values")
    low, high = min(values), max(values)
    span = high - low
    if span == 0:
        return _SPARKS[0] * len(values)
    return "".join(
        _SPARKS[min(int((value - low) / span * len(_SPARKS)), len(_SPARKS) - 1)]
        for value in values
    )


def wear_map(erase_counts: Sequence[int], *, columns: int = 32) -> str:
    """Render per-block erase counts as a block heat map.

    One character per physical block, row-major; darker means more worn.
    Makes pinned cold regions (runs of light cells) directly visible.
    """
    if not erase_counts:
        raise ValueError("no erase counts")
    top = max(max(erase_counts), 1)
    lines = []
    for start in range(0, len(erase_counts), columns):
        row = erase_counts[start:start + columns]
        lines.append(
            "".join(
                _SPARKS[min(int(count / top * len(_SPARKS)), len(_SPARKS) - 1)]
                for count in row
            )
        )
    lines.append(f"(scale: ▁ = 0 … █ = {top} erases)")
    return "\n".join(lines)
