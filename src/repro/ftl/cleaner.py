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

import math
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.obs.bus import M_GC_SCAN
from repro.obs.events import GcScan

if TYPE_CHECKING:
    from repro.obs.bus import BusLike


#: One unit as a driver presents it: ``(unit, benefit, cost, wear)``.
Candidate = tuple[int, int, int, int]


class CyclicScanner:
    """Cyclic scan for the next recycling candidate.

    Parameters
    ----------
    size:
        Number of scannable units (physical blocks for FTL, virtual block
        addresses for NFTL).

    Both scans choose among *candidates* the driver hands in, each a
    ``(unit, benefit, cost, wear)`` tuple: ``benefit`` counts the invalid
    pages recycling the unit reclaims, ``cost`` the valid pages that must
    be copied out first, ``wear`` its erase count.  A unit qualifies when
    the weighted sum ``benefit - cost`` is above zero (paper Section 5.1,
    with both weights at one unit).  The driver may leave out any unit
    whose benefit is zero (or below the ``min_benefit`` it asks for) —
    such a unit can never win — and may give the rest in any order: the
    choice depends only on the set.  ``eligible`` — asked only about units
    the tallies already admit — vetoes units that must be skipped whatever
    they hold (free, retired, or active blocks).

    The cursor persists across calls, so consecutive garbage collections
    continue around the ring instead of re-recycling the same region —
    which is itself a mild form of wear leveling and matches the paper's
    "cyclic scanning process over flash memory".  Every call accounts one
    revolution of the ring in ``probes``, however few candidates it is
    handed: the units left out are positions the revolution passes over.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"scanner size must be positive, got {size}")
        self.size = size
        self.cursor = 0
        self.probes = 0  # diagnostic: ring positions the scans accounted for
        # Telemetry bus, set by the owning translation layer; None keeps
        # the scan loop free of any event work.
        self._obs: "BusLike | None" = None

    def attach_bus(self, bus: "BusLike | None") -> None:
        """Emit one ``GcScan`` event per victim-selection call on ``bus``."""
        self._obs = bus

    def find_least_worn(
        self,
        candidates: Iterable[Candidate],
        eligible: Callable[[int], bool] | None = None,
        *,
        min_benefit: int = 1,
    ) -> int | None:
        """Return the qualifying unit with the smallest wear.

        This is the dynamic wear leveling the paper's baselines already
        have: "dynamic wear leveling achieves wear leveling by trying to
        recycle blocks with small erase counts" (Section 1), applied to
        the candidates the greedy cost-benefit rule admits.  Ties break in
        scan order from the cursor, so consecutive garbage collections
        still walk the ring.  ``min_benefit`` raises the bar a candidate's
        benefit must reach.
        """
        size = self.size
        cursor = self.cursor
        self.probes += size
        best_unit: int | None = None
        best_key = None
        for unit, gain, loss, worn in candidates:
            if gain <= loss or gain < min_benefit:
                continue
            # Least wear first, then first met walking from the cursor.
            key = (worn, (unit - cursor) % size)
            if (best_key is None or key < best_key) and (
                eligible is None or eligible(unit)
            ):
                best_unit, best_key = unit, key
        return self._chosen("least-worn", best_unit)

    def find_best_fallback(
        self,
        candidates: Iterable[Candidate],
        eligible: Callable[[int], bool] | None = None,
    ) -> int | None:
        """The unit with the largest weighted sum, lowest unit on a tie.

        Used when no unit qualifies under the strict ``> 0`` rule but space
        must still be reclaimed; only units with positive ``benefit`` are
        considered (recycling a block with nothing invalid reclaims no
        space).  Returns ``None`` when nothing can be reclaimed at all.
        """
        self.probes += self.size
        best_unit: int | None = None
        best_sum = -math.inf
        for unit, gain, loss, _ in candidates:
            if gain > 0 and gain - loss >= best_sum:
                weighted = gain - loss
                # A larger sum wins; candidates come in no order, so a
                # tie (which implies a best unit) goes to the lower unit.
                if (
                    weighted > best_sum
                    or unit < best_unit  # type: ignore[operator]
                ) and (eligible is None or eligible(unit)):
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
        """Inverse of :meth:`snapshot_state`.

        Checkpoint images are outside input: a size mismatch, a cursor off
        the ring or a negative probe count raises ``ValueError`` instead of
        skewing every later tie-break.
        """
        if state["size"] != self.size:
            raise ValueError(
                f"scanner snapshot covers {state['size']} units, "
                f"scanner has {self.size}"
            )
        cursor, probes = state["cursor"], state["probes"]
        if not 0 <= cursor < self.size:
            raise ValueError(
                f"scanner snapshot cursor {cursor} outside [0, {self.size})"
            )
        if probes < 0:
            raise ValueError(f"scanner snapshot probes {probes} is negative")
        self.cursor = cursor
        self.probes = probes

    def __repr__(self) -> str:
        return f"CyclicScanner(size={self.size}, cursor={self.cursor})"
