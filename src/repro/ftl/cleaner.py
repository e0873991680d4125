"""Victim selection for garbage collection.

Paper Section 5.1 fixes the Cleaner policy used for every experiment so
comparisons are fair:

    "the erasing of a block with each valid page resulted in one unit of
    recycling cost, and that with each invalid page generated one unit of
    benefit.  Block candidates for recycling were picked up by a cyclic
    scanning process over flash memory if their weighted sum of cost and
    benefit was above zero."

This module implements that greedy cost-benefit score and the cyclic
scanner.  Both FTL (scanning physical blocks) and NFTL (scanning virtual
block chains) reuse it; only the unit being scanned differs.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.obs.bus import M_GC_SCAN
from repro.obs.events import GcScan

if TYPE_CHECKING:
    from repro.obs.bus import BusLike


class CyclicScanner:
    """Cyclic scan for the next recycling candidate.

    Parameters
    ----------
    size:
        Number of scannable units (physical blocks for FTL, virtual block
        addresses for NFTL).

    Both scans read the score from two flat per-unit tallies: ``benefit``
    counts the invalid pages recycling a unit reclaims, ``cost`` the valid
    pages that must be copied out first.  A unit qualifies when the
    weighted sum ``benefit - cost`` is above zero (paper Section 5.1, with
    both weights at one unit).  ``eligible`` — asked only about units the
    tallies already admit — vetoes units that must be skipped whatever
    they hold (free, retired, or active blocks).

    The cursor persists across calls, so consecutive garbage collections
    continue around the ring instead of re-recycling the same region —
    which is itself a mild form of wear leveling and matches the paper's
    "cyclic scanning process over flash memory".
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"scanner size must be positive, got {size}")
        self.size = size
        self.cursor = 0
        self.probes = 0  # diagnostic: total candidates examined
        # Telemetry bus, set by the owning translation layer; None keeps
        # the scan loop free of any event work.
        self._obs: "BusLike | None" = None

    def attach_bus(self, bus: "BusLike | None") -> None:
        """Emit one ``GcScan`` event per victim-selection call on ``bus``."""
        self._obs = bus

    def find_least_worn(
        self,
        benefit: Sequence[int],
        cost: Sequence[int],
        wear: Sequence[int],
        eligible: Callable[[int], bool] | None = None,
        *,
        min_benefit: int = 1,
    ) -> int | None:
        """Return the qualifying unit with the smallest wear.

        This is the dynamic wear leveling the paper's baselines already
        have: "dynamic wear leveling achieves wear leveling by trying to
        recycle blocks with small erase counts" (Section 1), applied to
        the candidates the greedy cost-benefit rule admits.  One full
        cyclic revolution enumerates candidates; ties break in scan order
        so consecutive garbage collections still walk the ring.
        ``min_benefit`` raises the bar a candidate's benefit must reach;
        when no unit reaches it the revolution is accounted, not walked.
        """
        size = self.size
        cursor = self.cursor
        self.probes += size
        best_unit: int | None = None
        if max(benefit) >= min_benefit:
            best_key = None
            for unit, gain, loss in zip(range(size), benefit, cost):
                if gain <= loss or gain < min_benefit:
                    continue
                # Least wear first, then first met walking from the cursor.
                key = (wear[unit], (unit - cursor) % size)
                if (best_key is None or key < best_key) and (
                    eligible is None or eligible(unit)
                ):
                    best_unit, best_key = unit, key
        return self._chosen("least-worn", best_unit)

    def find_best_fallback(
        self,
        benefit: Sequence[int],
        cost: Sequence[int],
        eligible: Callable[[int], bool] | None = None,
    ) -> int | None:
        """Full scan for the unit with the largest weighted sum.

        Used when no unit qualifies under the strict ``> 0`` rule but space
        must still be reclaimed; only units with positive ``benefit`` are
        considered (recycling a block with nothing invalid reclaims no
        space).  Returns ``None`` when nothing can be reclaimed at all.
        """
        size = self.size
        self.probes += size
        best_unit: int | None = None
        best_sum = None
        for unit, gain, loss in zip(range(size), benefit, cost):
            if gain <= 0:
                continue
            weighted = gain - loss
            if (best_sum is None or weighted > best_sum) and (
                eligible is None or eligible(unit)
            ):
                best_unit, best_sum = unit, weighted
        return self._chosen("fallback", best_unit)

    def _chosen(self, mode: str, unit: int | None) -> int | None:
        """Move the cursor past ``unit`` and report the finished scan."""
        if unit is not None:
            self.cursor = (unit + 1) % self.size
        if self._obs is not None and self._obs.mask & M_GC_SCAN:
            self._obs.emit(GcScan(mode, self.size, -1 if unit is None else unit))
        return unit

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, int]:
        """The scanner's mutable state: cursor position and probe count."""
        return {"size": self.size, "cursor": self.cursor, "probes": self.probes}

    def restore_state(self, state: dict[str, int]) -> None:
        """Inverse of :meth:`snapshot_state`; rejects a size mismatch."""
        if state["size"] != self.size:
            raise ValueError(
                f"scanner snapshot covers {state['size']} units, "
                f"scanner has {self.size}"
            )
        self.cursor = state["cursor"]
        self.probes = state["probes"]

    def __repr__(self) -> str:
        return f"CyclicScanner(size={self.size}, cursor={self.cursor})"
