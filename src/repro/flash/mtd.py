"""Memory Technology Device (MTD) layer.

Paper Figure 1 places an MTD driver between the Flash Translation Layer and
the raw flash: it "provide[s] primitive functions, such as read, write, and
erase over flash memory".  This class is that layer for the simulator: a
thin pass-through to :class:`~repro.flash.chip.NandFlash` that additionally
accumulates device-busy time from a :class:`~repro.flash.timing.TimingModel`
and exposes operation counters, so higher layers never touch the chip
object directly.  It is also the one read/program emit site: each event
carries ``busy_time`` after its own operation, spans included.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.flash.chip import NandFlash, OpCounters
from repro.flash.errors import FlashError
from repro.flash.timing import timing_for
from repro.obs.bus import M_PROGRAM, M_READ, BusLike


class MtdDevice:
    """Primitive read/write/erase interface over one NAND chip.

    ``MtdDevice(flash)`` drives an existing chip; its latency model is the
    datasheet timing of the chip's cell type (:func:`~repro.flash.timing.
    timing_for`).
    """

    def __init__(self, flash: NandFlash) -> None:
        self.flash = flash
        self.geometry = flash.geometry
        self.timing = timing_for(flash.geometry)
        self.busy_time = 0.0
        self._obs: BusLike | None = None

    def attach_bus(self, bus: BusLike) -> None:
        """Report this device on ``bus``: reads and programs here, erases via
        the chip, the chip's counters for the collector to pull, and
        ``busy_time`` as the clock of a bus that has none."""
        self._obs = bus
        self.flash.attach_bus(bus)
        bus.register_hot_source(self.flash)
        if bus.clock is None:
            bus.clock = lambda: self.busy_time

    # ------------------------------------------------------------------
    # Primitive operations (paper Figure 1: read / write / erase)
    # ------------------------------------------------------------------
    def read_page(self, block: int, page: int) -> tuple[int, bytes | None]:
        """Read one page; returns ``(spare_lba, payload)``."""
        self.busy_time += self.timing.read_page
        spare = self.flash.read(block, page)
        obs = self._obs
        if obs is not None and obs.mask & M_READ:
            obs.emit_read(block, page)
        return spare

    def write_page(
        self, block: int, page: int, *, lba: int, data: bytes | None = None
    ) -> None:
        """Program one page."""
        self.busy_time += self.timing.program_page
        self.flash.program(block, page, lba=lba, data=data)
        obs = self._obs
        if obs is not None and obs.mask & M_PROGRAM:
            obs.emit_program(block, page, lba)

    def erase_block(self, block: int) -> None:
        """Erase one block (~1.5 ms on MLC×2 per the paper's datasheet)."""
        self.busy_time += self.timing.erase_block
        self.flash.erase(block)

    def invalidate_page(self, block: int, page: int) -> None:
        """Mark a page's data superseded (a spare-area status update)."""
        self.flash.invalidate(block, page)

    # ------------------------------------------------------------------
    # Span primitives (DESIGN.md 5j)
    # ------------------------------------------------------------------
    # Each equals the per-page calls above issued in order.  When the chip
    # takes a span at once, busy time still advances by the same repeated
    # additions (``n * t`` rounds differently), stored before each event a
    # subscriber wants.  When it declines, the per-page calls run here; a
    # :class:`FlashError` out of them carries ``pages_done``.
    def program_span(
        self,
        block: int,
        first_page: int,
        lbas: Sequence[int],
        data: Sequence[bytes | None] | None = None,
    ) -> None:
        """Program ``len(lbas)`` consecutive pages from ``first_page``."""
        if self.flash.program_span(block, first_page, lbas):
            busy, elapsed = self.busy_time, self.timing.program_page
            obs = self._obs
            if obs is not None and obs.mask & M_PROGRAM:
                for page, lba in enumerate(lbas, first_page):
                    self.busy_time = busy = busy + elapsed
                    obs.emit_program(block, page, lba)
            else:
                for _ in lbas:
                    busy += elapsed
                self.busy_time = busy
            return
        done = 0
        try:
            for lba in lbas:
                self.write_page(
                    block, first_page + done, lba=lba,
                    data=None if data is None else data[done],
                )
                done += 1
        except FlashError as exc:
            exc.pages_done = done
            raise

    def copy_span(
        self,
        sources: Sequence[int],
        block: int,
        first_page: int,
        carry: tuple[int, bytes | None] | None = None,
        *,
        supersede: bool = False,
    ) -> None:
        """Live-page copies: read each source page index, program a run.

        This is the unit the paper counts as *live-page copying* (Section
        4.3); callers count copies themselves so that FTL merges and SWL
        moves are attributed to the right cause.  A failed program leaves
        its page's ``(spare_lba, payload)`` on the exception as ``carry``:
        handing it back with the remaining sources re-issues that program
        without a second read.

        ``supersede`` is an NFTL fold, whose old blocks stay readable until
        the whole chain has moved; the caller erases every source block
        next.  Page by page — the route an injector, and so a power cut,
        forces — each source is invalidated once its copy has landed and
        before the next page is read, so an interrupted span never leaves
        two valid copies of a page.  A span the chip takes at once has no
        injector to cut it short: its sources are left to the erase.
        """
        if carry is None and self.flash.copy_span(sources, block, first_page):
            busy = self.busy_time
            read, program = self.timing.read_page, self.timing.program_page
            obs = self._obs
            if obs is not None and obs.mask & (M_READ | M_PROGRAM):
                # The copies' spare tags are in place: each program reads its own.
                pages_per_block = self.geometry.pages_per_block
                for page, index in enumerate(sources, first_page):
                    self.busy_time = busy = busy + read
                    if obs.mask & M_READ:
                        obs.emit_read(*divmod(index, pages_per_block))
                    self.busy_time = busy = busy + program
                    if obs.mask & M_PROGRAM:
                        obs.emit_program(block, page, self.flash.page_lba(block, page))
            else:
                for _ in sources:
                    busy += read
                    busy += program
                self.busy_time = busy
            return
        pages_per_block = self.geometry.pages_per_block
        done = 0
        try:
            for index in sources:
                if carry is None:
                    carry = self.read_page(*divmod(index, pages_per_block))
                self.write_page(
                    block, first_page + done, lba=carry[0], data=carry[1]
                )
                carry = None
                if supersede:
                    self.invalidate_page(*divmod(index, pages_per_block))
                done += 1
        except FlashError as exc:
            exc.pages_done = done
            exc.carry = carry
            raise

    def read_pages(self, indices: Sequence[int]) -> None:
        """Read the pages at ``indices``, discarding what they hold."""
        if self.flash.read_pages(indices):
            busy, elapsed = self.busy_time, self.timing.read_page
            obs = self._obs
            if obs is not None and obs.mask & M_READ:
                pages_per_block = self.geometry.pages_per_block
                for index in indices:
                    self.busy_time = busy = busy + elapsed
                    obs.emit_read(*divmod(index, pages_per_block))
            else:
                for _ in indices:
                    busy += elapsed
                self.busy_time = busy
            return
        pages_per_block = self.geometry.pages_per_block
        done = 0
        try:
            for index in indices:
                self.read_page(*divmod(index, pages_per_block))
                done += 1
        except FlashError as exc:
            exc.pages_done = done
            raise

    def invalidate_pages(self, indices: Sequence[int]) -> None:
        """Mark each page index of ``indices`` superseded, in order."""
        self.flash.invalidate_pages(indices)

    # ------------------------------------------------------------------
    # Observation pass-throughs
    # ------------------------------------------------------------------
    def add_erase_listener(self, listener: Callable[[int], None]) -> None:
        """Register a per-erase callback (the SW Leveler's update hook)."""
        self.flash.add_erase_listener(listener)

    def clear_erase_listeners(self) -> None:
        """Drop every erase listener (used when simulating a reboot)."""
        self.flash.clear_erase_listeners()

    def mark_bad(self, block: int) -> None:
        """Record a grown-bad block in the chip's bad-block table."""
        self.flash.mark_bad(block)

    @property
    def bad_blocks(self) -> set[int]:
        """The chip's grown-bad-block table."""
        return self.flash.bad_blocks

    @property
    def counters(self) -> OpCounters:
        return self.flash.counters

    @property
    def erase_counts(self) -> list[int]:
        return self.flash.erase_counts

    def __repr__(self) -> str:
        return f"MtdDevice({self.flash!r}, busy={self.busy_time:.3f}s)"
