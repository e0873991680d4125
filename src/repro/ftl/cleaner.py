"""Victim selection for garbage collection.

Paper Section 5.1 fixes the Cleaner policy used for every experiment so
comparisons are fair:

    "the erasing of a block with each valid page resulted in one unit of
    recycling cost, and that with each invalid page generated one unit of
    benefit.  Block candidates for recycling were picked up by a cyclic
    scanning process over flash memory if their weighted sum of cost and
    benefit was above zero."

This module implements that greedy cost-benefit score and the cyclic
scanner.  NFTL (scanning virtual block chains) hands the scanner its
candidates; FTL (scanning physical blocks) keeps its blocks filed in a
:class:`VictimIndex`, which makes the same choices by lookup and accounts
them on the same scanner.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Callable, Iterable
from itertools import chain
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


class VictimIndex:
    """A driver's units filed by which Cleaner pick can choose them.

    Handing :class:`CyclicScanner` every block of a page-mapping FTL costs
    a Python walk of the chip per pick, because any block's tallies may
    have changed since the last one.  The index keeps the blocks filed
    instead, from the driver's live ``invalid`` (benefit), ``valid``
    (cost) and ``wear`` lists, so each pick is a lookup:

    * :meth:`least_worn` — units with ``invalid > valid``, in one sorted
      list keyed ``wear * size + unit``: the least wear is the first key,
      and "first met from the cursor" is one bisect into that wear's run;
    * :meth:`dead` — the same for units whose ``invalid`` reaches
      ``dead_at`` (a block's page count: fully invalid), the
      erase-on-demand pick;
    * :meth:`fallback` — units with ``0 < invalid <= valid``, in one set
      per ``valid - invalid`` (the weighted sum, negated), walked from
      the lowest non-empty slot.

    The driver tells the index what changed, two ways.  A stale page
    that leaves its unit some valid page appends the unit to
    :attr:`marked` (repeats allowed), unless :attr:`settled` says the
    index can do without; the next least-worn or fallback pick looks at
    the units marked since the previous one and nothing else.  Such a
    change never drops a unit out of the least-worn list, never changes
    its wear and cannot make it dead, so a marked unit is refiled only
    when it now qualifies, and a unit in that list (settled) has no
    fallback slot to move.  Any other change calls :meth:`refile` on the
    spot: the last valid page going stale, pages copied out, a program
    fault, an erase (new wear, zeroed tallies).  The dead list therefore
    never waits for marks, and :meth:`dead` — one call per new write
    frontier — reads none.  A unit that every pick vetoes
    while it gains valid pages (an open write frontier) is refiled once,
    when the veto ends, not on every page written into it.  The fallback
    slots, which nearly every stale page would move, are refiled only
    when a fallback pick needs them, from the units marked or refiled
    since the previous fallback.  :meth:`rebuild` files every unit
    (attach, restore): the index is derived state and never part of a
    snapshot.

    Victim, cursor, ``probes`` and ``GcScan`` events are exactly those of
    the scanner's own ``find_least_worn`` (with ``min_benefit=dead_at``
    for :meth:`dead`) and ``find_best_fallback`` over every unit, and
    ``eligible`` is asked only about units the filed tallies admit.
    """

    def __init__(
        self,
        scanner: CyclicScanner,
        dead_at: int,
        invalid: list[int],
        valid: list[int],
        wear: list[int],
    ) -> None:
        self.scanner = scanner
        self.dead_at = dead_at
        #: Units with a stale page since the last pick, in any order and
        #: with repeats; the driver appends, picks drain.
        self.marked: list[int] = []
        self.rebuild(invalid, valid, wear)

    def rebuild(self, invalid: list[int], valid: list[int], wear: list[int]) -> None:
        """File every unit afresh from the driver's (new) tally lists."""
        size = self.scanner.size
        self._invalid, self._valid, self._wear = invalid, valid, wear
        self.marked.clear()
        # Per unit, its key in the least-worn list (and in the dead list);
        # -1 when it is not there.
        self._filed = [
            wear[unit] * size + unit if invalid[unit] > valid[unit] else -1
            for unit in range(size)
        ]
        self._dead_key = [
            key if invalid[unit] >= self.dead_at else -1
            for unit, key in enumerate(self._filed)
        ]
        #: Per unit, whether the index can do without its marks: a unit
        #: filed as qualifying stays filed until its next refile.
        self.settled = [key >= 0 for key in self._filed]
        self._least_worn = sorted(key for key in self._filed if key >= 0)
        self._dead = sorted(key for key in self._dead_key if key >= 0)
        # Fallback: unit -> slot ``valid - invalid`` (-1: not filed), and
        # one set per slot; ``valid`` never exceeds ``dead_at``, and no
        # slot below ``_floor`` holds a unit.
        self._slot = [-1] * size
        self._slots: list[set[int]] = [set() for _ in range(self.dead_at)]
        self._floor = 0
        self._fallback_due: set[int] = set()
        self._refile_slots(range(size))

    def refile(self, unit: int) -> None:
        """File ``unit`` afresh after any change to its tallies or wear."""
        self._fallback_due.add(unit)
        benefit = self._invalid[unit]
        key = -1
        if benefit > self._valid[unit]:
            key = self._wear[unit] * self.scanner.size + unit
        filed = self._filed[unit]
        if key != filed:
            _move(self._least_worn, filed, key)
            self._filed[unit] = key
            self.settled[unit] = key >= 0
        if benefit < self.dead_at:
            key = -1
        filed = self._dead_key[unit]
        if key != filed:
            _move(self._dead, filed, key)
            self._dead_key[unit] = key

    def least_worn(self, eligible: Callable[[int], bool]) -> int | None:
        """``find_least_worn`` over every unit: least wear, then cursor order."""
        self._refresh()
        return self._pick(self._least_worn, eligible)

    def dead(self, eligible: Callable[[int], bool]) -> int | None:
        """``find_least_worn(min_benefit=dead_at)`` over every unit.

        Marks cannot make a unit dead, so they are left to the next
        least-worn pick -- unless they pile up past one per unit.
        """
        if len(self.marked) > self.scanner.size:
            self._refresh()
        return self._pick(self._dead, eligible)

    def fallback(self, eligible: Callable[[int], bool]) -> int | None:
        """``find_best_fallback`` over every unit, after a failed pick.

        Only for the pass whose :meth:`least_worn` just found nothing
        under the same ``eligible``: every unit with ``invalid > valid``
        was vetoed then, so only the slots of the others are searched.
        """
        self._refresh()
        due = self._fallback_due
        self._refile_slots(due)
        due.clear()
        slots = self._slots
        floor = self._floor
        while floor < len(slots) and not slots[floor]:
            floor += 1
        self._floor = floor
        scanner = self.scanner
        scanner.probes += scanner.size
        victim = next(
            (
                unit
                for units in slots[floor:]
                for unit in sorted(units)
                if eligible(unit)
            ),
            None,
        )
        return scanner._chosen("fallback", victim)

    def _pick(self, keys: list[int], eligible: Callable[[int], bool]) -> int | None:
        """Lowest-keyed eligible unit of ``keys``, entering at the cursor."""
        scanner = self.scanner
        size, cursor = scanner.size, scanner.cursor
        scanner.probes += size
        end, count = 0, len(keys)
        while end < count:
            start = end
            base = keys[start] - keys[start] % size  # this run's wear * size
            end = bisect_left(keys, base + size, start)
            split = bisect_left(keys, base + cursor, start, end)
            for at in chain(range(split, end), range(start, split)):
                if eligible(keys[at] - base):
                    return scanner._chosen("least-worn", keys[at] - base)
        return scanner._chosen("least-worn", None)

    def _refresh(self) -> None:
        """Refile the marked units that a stale page made qualify."""
        marked = self.marked
        if not marked:
            return
        changed = set(marked)
        marked.clear()
        self._fallback_due |= changed
        invalid, valid, filed = self._invalid, self._valid, self._filed
        for unit in changed:
            if filed[unit] < 0 and invalid[unit] > valid[unit]:
                self.refile(unit)  # qualifies now; filed ones stay put

    def _refile_slots(self, units: Iterable[int]) -> None:
        """Move ``units`` to the fallback slot their tallies now name."""
        invalid, valid = self._invalid, self._valid
        filed, slots = self._slot, self._slots
        floor = self._floor
        for unit in units:
            benefit = invalid[unit]
            cost = valid[unit]
            slot = cost - benefit if 0 < benefit <= cost else -1
            if slot != filed[unit]:
                if filed[unit] >= 0:
                    slots[filed[unit]].remove(unit)
                if slot >= 0:
                    slots[slot].add(unit)
                    if slot < floor:
                        floor = slot
                filed[unit] = slot
        self._floor = floor


def _move(keys: list[int], old: int, new: int) -> None:
    """Replace ``old`` by ``new`` in sorted ``keys``; -1 means absent."""
    if old >= 0:
        del keys[bisect_left(keys, old)]
    if new >= 0:
        insort(keys, new)
