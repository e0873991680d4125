"""Plain-text figure rendering.

Terminal-friendly rendering of wear data — one-line sparklines for the
report's wear-evolution series — so a report or an example can *show*
the shape without a plotting dependency.
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

