"""Common interface of Flash Translation Layer drivers.

Paper Section 2.1: "A typical Flash Translation Layer driver consists of an
Allocator and a Cleaner.  The Allocator handles any translation of Logical
Block Addresses (LBA) and their Physical Block Addresses (PBA). ...  The
Cleaner is to do garbage collection."  This module defines the driver
surface shared by the two concrete implementations (FTL in
:mod:`repro.ftl.page_mapping`, NFTL in :mod:`repro.ftl.nftl`), the
statistics record both maintain, and the SW Leveler wiring: a driver *is* a
:class:`~repro.core.leveler.WearLevelingHost`.

Address units: drivers operate on *logical page numbers* (LPNs).  One LPN
covers one flash page of data; the simulation engine converts the trace's
512-byte sector LBAs to LPNs using the geometry's ``sectors_per_page``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.core.leveler import WearLeveler
from repro.flash.chip import PAGE_VALID
from repro.flash.errors import FlashError, TransientEraseError, TranslationError
from repro.flash.geometry import FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.obs.bus import M_GC_END, M_GC_START, M_RECOVERY
from repro.obs.events import GcEnd, GcStart, Recovery
from repro.util.diagnostics import fault_log

if TYPE_CHECKING:
    from repro.ftl.allocator import BlockAllocator
    from repro.ftl.cleaner import CyclicScanner
    from repro.obs.bus import BusLike
    from repro.sim.metrics import EraseDistribution

#: The paper's garbage-collection trigger: GC runs "when the percentage of
#: free blocks was under 0.2% of the entire flash-memory capacity".
GC_FREE_FRACTION = 0.002

#: Erase attempts per block before a transiently failing erase is treated
#: as permanent and the block is retired (datasheet-style bounded retry).
ERASE_RETRY_LIMIT = 3

#: Default fraction of physical capacity withheld from the logical space.
#: The paper's setup exports (almost) the full capacity; a pure-software
#: driver needs some slack to garbage collect, so simulations reserve 5 %
#: unless configured otherwise (documented per experiment in DESIGN.md).
DEFAULT_OP_RATIO = 0.05


def _gc_free_blocks(num_blocks: int) -> int:
    """The Cleaner engages when free blocks drop to this count, the
    paper's fixed GC_FREE_FRACTION of the chip.  At the paper's scale
    0.2% of 4096 blocks is 8; small simulated chips floor at 2 so GC
    always has one block of headroom to copy into."""
    return max(2, round(GC_FREE_FRACTION * num_blocks))


def logical_pages(
    geometry: FlashGeometry, op_ratio: float = DEFAULT_OP_RATIO
) -> int:
    """Logical pages a driver exports from one chip of ``geometry``.

    The chip minus its reserved blocks: at least ``op_ratio`` of them, but
    never fewer than the GC trigger level plus three (two write frontiers
    and one block of copy headroom), the minimum for the Cleaner to always
    make progress.  On the paper's 4,096-block chip the 5 % ratio
    dominates; the floor only matters for the tiny chips of unit tests.
    """
    if not 0.0 < op_ratio < 1.0:
        raise ValueError(f"op_ratio must be in (0, 1), got {op_ratio}")
    blocks = geometry.num_blocks
    reserve = max(_gc_free_blocks(blocks) + 3, math.ceil(op_ratio * blocks))
    if reserve >= blocks:
        raise ValueError(
            f"{geometry.name}: {blocks} blocks leave "
            f"no logical space after reserving {reserve}"
        )
    return (blocks - reserve) * geometry.pages_per_block


class _NoBracket:
    """A ``with`` bracket that does nothing: for a GC pass that nothing
    traces, or a driver without a leveler to suspend."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NO_BRACKET = _NoBracket()


class _Suspension:
    """Suspends ``leveler`` for the ``with`` body; resumes on every exit.

    Its own object, not the leveler: ``with`` looks ``__enter__`` up on
    the type, past a proxy's ``__getattr__`` (``bench/tracing.py``).
    """

    __slots__ = ("_leveler",)

    def __init__(self, leveler: WearLeveler) -> None:
        self._leveler = leveler

    def __enter__(self) -> None:
        self._leveler.suspend()

    def __exit__(self, *exc_info: object) -> None:
        self._leveler.resume()


@dataclass
class LayerStats:
    """Cumulative driver activity counters.

    ``live_page_copies`` is the paper's live-page-copying count (Section
    4.3): every valid page moved during garbage collection, a fold/merge,
    or a forced static-wear-leveling recycle.
    """

    host_reads: int = 0
    host_writes: int = 0
    gc_runs: int = 0
    live_page_copies: int = 0
    folds: int = 0                 #: NFTL primary/replacement merges
    forced_recycles: int = 0       #: blocks recycled on SW Leveler request
    dead_recycles: int = 0         #: fully-invalid blocks erased on demand
    erase_retries: int = 0         #: erase attempts repeated after a fault
    program_faults: int = 0        #: program failures recovered (re-issued)
    recovery_copies: int = 0       #: live-page copies draining failing blocks
    recovery_erases: int = 0       #: erases spent on fault recovery
    extra: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        data = {
            "host_reads": self.host_reads,
            "host_writes": self.host_writes,
            "gc_runs": self.gc_runs,
            "live_page_copies": self.live_page_copies,
            "folds": self.folds,
            "forced_recycles": self.forced_recycles,
            "dead_recycles": self.dead_recycles,
            "erase_retries": self.erase_retries,
            "program_faults": self.program_faults,
            "recovery_copies": self.recovery_copies,
            "recovery_erases": self.recovery_erases,
        }
        data.update(self.extra)
        return data


class TranslationLayer(ABC):
    """Abstract Flash Translation Layer driver over an MTD device.

    The base owns what FTL and NFTL share (paper Sections 3 and 5.1: one
    greedy Cleaner policy, which the SW Leveler only asks to collect a
    block set): logical sizing, SW Leveler attachment, the
    ``WearLevelingHost`` surface (:meth:`recycle_block_range` and the cost
    probe), the Cleaner's free-space trigger (:meth:`_reclaim_space`), and
    grown-bad-block management (program-fault bookkeeping, the deferred
    drain of faulted blocks, erase retry, retirement).  The Cleaner
    engages when free blocks fall to :data:`GC_FREE_FRACTION` of the chip,
    the paper's fixed 0.2 % (Section 5.1); it is a constant, not a
    parameter.

    A concrete driver supplies its mapping (the Allocator's translation,
    host reads and writes, attach-time rebuild), one Cleaner pass
    (:meth:`_gc_once`), and one evacuation step (:meth:`_evacuate`): how a
    block's live data leaves it.  Forced recycles and the drain of faulted
    blocks both go through that step, so retirement has one path.

    Parameters
    ----------
    mtd:
        The MTD device to manage.
    op_ratio:
        Fraction of physical capacity withheld from the logical space.
    alloc_policy:
        Free-block allocation order: ``"lifo"`` (default, the era's
        firmware behaviour and the baseline the paper's Table 4 implies)
        or ``"min-wear"`` (stronger allocation-side dynamic wear
        leveling).  See :mod:`repro.ftl.allocator`.

    A block worn past its rated endurance stays in service, as in the
    paper's Table 4 runs (the chip records ``first_failure`` and
    ``worn_blocks``).  Only a block a fault condemned is retired
    (grown-bad-block management): it never returns to the free pool,
    physical capacity shrinks, and the device reaches end of life when
    the Cleaner can no longer keep its reserve — surfacing as
    :class:`~repro.flash.errors.OutOfSpaceError`.
    """

    #: Short name used in reports ("FTL" / "NFTL").
    name: str = "abstract"

    def __init__(
        self,
        mtd: MtdDevice,
        *,
        op_ratio: float = DEFAULT_OP_RATIO,
        alloc_policy: str = "lifo",
    ) -> None:
        self._num_logical_pages = logical_pages(mtd.geometry, op_ratio)
        self.mtd = mtd
        self.geometry = mtd.geometry
        self.op_ratio = op_ratio
        self.alloc_policy = alloc_policy
        self.gc_free_blocks = _gc_free_blocks(self.geometry.num_blocks)
        #: Blocks withdrawn from service: grown bad under fault injection.
        self.retired_blocks: set[int] = set()
        #: Blocks condemned by a program/erase fault, awaiting retirement
        #: (their live data may still need draining).
        self._failed_blocks: set[int] = set()
        #: Program-faulted blocks awaiting evacuation and retirement at the
        #: next safe point (the end of a host write).
        self._pending_retire: list[int] = []
        self._retiring = False
        self.stats = LayerStats()
        self.leveler: WearLeveler | None = None
        self._suspension: AbstractContextManager[None] = _NO_BRACKET
        self._obs: "BusLike | None" = None

    def attach_bus(self, bus: "BusLike | None") -> None:
        """Emit GC and recovery telemetry on ``bus``.

        Propagates to the driver's Cleaner scanner, so a single attach
        instruments the whole driver.
        """
        self._obs = bus
        self.scanner.attach_bus(bus)

    def _gc_traced(self, reason: str, victim: int) -> AbstractContextManager[None]:
        """Bracket one GC pass with ``GcStart``/``GcEnd`` telemetry.

        The end event carries the pass's measured cost as deltas of the
        driver's copy counter and the device's erase counter.  With no bus,
        or one that does not take GC events, the bracket is the shared
        no-op: one test, and no generator is built (DESIGN.md, the
        overhead contract).
        """
        obs = self._obs
        if obs is None or not obs.mask & (M_GC_START | M_GC_END):
            return _NO_BRACKET
        return self._traced_gc_pass(obs, reason, victim)

    @contextmanager
    def _traced_gc_pass(
        self, obs: "BusLike", reason: str, victim: int
    ) -> Iterator[None]:
        """The traced :meth:`_gc_traced` bracket."""
        obs.emit(GcStart(reason, victim))
        copies_before = self.stats.live_page_copies
        erases_before = self.mtd.counters.erases
        try:
            yield
        finally:
            obs.emit(GcEnd(
                reason, victim,
                self.stats.live_page_copies - copies_before,
                self.mtd.counters.erases - erases_before,
            ))

    def _release_or_retire(self, block: int) -> None:
        """Return an erased block to the pool, or retire it if condemned.

        The single chokepoint for grown-bad-block management: every block
        release in both drivers goes through here.  A retired block is
        recorded in the chip's bad-block table (so attach-time scans skip
        it across reboots) and reported to the SW Leveler (so its BET set
        stays permanently flagged and SWL-Procedure never selects it).
        """
        if block in self._failed_blocks:
            self._failed_blocks.discard(block)
            self.retired_blocks.add(block)
            self.mtd.mark_bad(block)
            self.stats.extra["retired"] = len(self.retired_blocks)
            if self.leveler is not None:
                self.leveler.on_block_retired(block)
            fault_log.info(
                "%s: retired block %d (grown bad, wear %d)",
                self.name, block, self.mtd.erase_counts[block],
            )
            if self._obs is not None and self._obs.mask & M_RECOVERY:
                self._obs.emit(Recovery("retire", block))
            return
        self.allocator.release(block)

    def _erase_with_recovery(self, block: int) -> bool:
        """Erase ``block``, absorbing transient failures with bounded retry.

        Returns ``True`` when the erase eventually succeeded.  After
        :data:`ERASE_RETRY_LIMIT` consecutive failures the block is
        condemned (``_failed_blocks``) and its surviving valid pages are
        invalidated on-chip so no later attach scan can resurrect stale
        data from it; the caller's ``_release_or_retire`` then retires it.
        """
        attempts = 0
        while True:
            try:
                self.mtd.erase_block(block)
                if attempts:
                    self.stats.recovery_erases += 1
                return True
            except TransientEraseError:
                attempts += 1
                if attempts >= ERASE_RETRY_LIMIT:
                    break
                self.stats.erase_retries += 1
                fault_log.debug(
                    "%s: erase of block %d failed, retry %d/%d",
                    self.name, block, attempts, ERASE_RETRY_LIMIT - 1,
                )
                if self._obs is not None and self._obs.mask & M_RECOVERY:
                    self._obs.emit(Recovery("erase_retry", block))
        self._failed_blocks.add(block)
        flash = self.mtd.flash
        for page in flash.valid_pages(block):
            self.mtd.invalidate_page(block, page)
        fault_log.warning(
            "%s: erase of block %d failed %d times; condemning block",
            self.name, block, attempts,
        )
        if self._obs is not None and self._obs.mask & M_RECOVERY:
            self._obs.emit(Recovery("condemn", block))
        return False

    # ------------------------------------------------------------------
    # Logical address space
    # ------------------------------------------------------------------
    #: Logical pages exported to the host (:func:`logical_pages`).
    _num_logical_pages: int
    #: Free-block pool and Cleaner scan; set by each driver's constructor.
    allocator: "BlockAllocator"
    scanner: "CyclicScanner"

    @property
    def num_logical_pages(self) -> int:
        """Number of logical pages exported to the host."""
        return self._num_logical_pages

    def check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self._num_logical_pages:
            raise TranslationError(
                f"logical page {lpn} out of range [0, {self._num_logical_pages}) "
                f"for {self.name} over {self.geometry.name}"
            )

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------
    # ``read_pages`` is every driver's host read entry; ``read`` stays a
    # single page because it hands the payload back.  A driver that places
    # a batch of writes in one pass sets ``write_pages``; one that places
    # each page from the page before it (NFTL) leaves it ``None``, and the
    # stack hands it one page at a time through ``write`` (DESIGN.md 5j).
    @abstractmethod
    def read(self, lpn: int) -> bytes | None:
        """Read one logical page; ``None`` when never written."""

    @abstractmethod
    def read_pages(self, lpns: Sequence[int]) -> int:
        """Read each logical page in order; returns the pages read.

        Unwritten pages touch no chip but count as host reads.  A
        :class:`~repro.flash.errors.FlashError` out of the batch carries
        ``pages_done``, the pages read before it.
        """

    @abstractmethod
    def write(self, lpn: int, data: bytes | None = None) -> None:
        """Out-place update of one logical page."""

    #: ``write_pages(lpns, payloads=None) -> pages``: write each logical
    #: page in order, ``payloads`` (when given) parallel to ``lpns``.  A
    #: :class:`~repro.flash.errors.FlashError` out of the batch carries
    #: ``pages_done``, the pages fully written before it.
    write_pages: Callable[..., int] | None = None

    def _in_range(self, lpns: Sequence[int], total: int) -> int:
        """Length of the leading part of ``lpns`` that is all in range."""
        if not total:
            return 0
        if type(lpns) is range and lpns.step == 1:
            low, high = lpns.start, lpns.stop - 1
        elif total == 1:  # the dominant request shape in the paper's traces
            low = high = lpns[0]
        else:
            low, high = min(lpns), max(lpns)
        pages = self._num_logical_pages
        if 0 <= low and high < pages:
            return total
        return next(i for i, lpn in enumerate(lpns) if not 0 <= lpn < pages)

    def _reject(self, lpn: int, done: int) -> None:
        """Raise for out-of-range ``lpn``, met after ``done`` good pages."""
        try:
            self.check_lpn(lpn)
        except TranslationError as exc:
            exc.pages_done = done
            raise

    def _read_failed(self, exc: FlashError, indices: Sequence[int]) -> None:
        """Restate a failed batch read's ``pages_done`` in host pages.

        ``indices`` holds each host page's page index, negative when
        unmapped.  Unmapped pages touch nothing, so they count in up to
        the failing mapped page, which is itself accepted as a host read.
        """
        done = [at for at, index in enumerate(indices) if index >= 0][exc.pages_done]
        self.stats.host_reads += done + 1
        exc.pages_done = done

    # ------------------------------------------------------------------
    # SW Leveler integration (paper Figure 1)
    # ------------------------------------------------------------------
    def attach_leveler(self, leveler: WearLeveler) -> None:
        """Wire a SW Leveler into the Cleaner's erase path.

        Every block erase — whether from normal garbage collection or the
        leveler's own forced recycles — then reaches SWL-BETUpdate, exactly
        as the paper requires ("the BET must be updated whenever a block is
        erased").
        """
        if self.leveler is not None:
            raise RuntimeError(f"{self.name} already has a leveler attached")
        self.leveler = leveler
        self._suspension = _Suspension(leveler)
        self.mtd.add_erase_listener(leveler.on_block_erased)
        # A leveler attached after a reboot must learn about blocks retired
        # in earlier sessions, so their BET sets stay permanently flagged.
        for block in sorted(self.retired_blocks):
            leveler.on_block_retired(block)

    def swl_cost_probe(self) -> tuple[int, int]:
        """``(block_erases, live_page_copies)`` for SWL-overhead attribution."""
        return self.mtd.counters.erases, self.stats.live_page_copies

    def _leveler_suspended(self) -> AbstractContextManager[None]:
        """Defer SWL-Procedure while the driver is mid-GC.

        BET updates still happen on every erase; the threshold check
        replays once the driver returns to a quiescent state, so a nested
        forced recycle can never interleave with an in-flight merge.
        Without a leveler the bracket is the shared no-op.
        """
        return self._suspension

    def recycle_block_range(self, blocks: range) -> int:
        """EraseBlockSet: force-recycle the selected block set so cold data
        moves (see :class:`~repro.core.leveler.WearLevelingHost`).

        A retired block is skipped (out of service; the leveler flags its
        set).  A free block holds nothing cold, but it is pulled to the
        head of the free order so a (possibly virgin) block joins the
        write rotation; the leveler flags its set directly.  Every other
        block goes through the driver's :meth:`_evacuate` step with reason
        ``"swl"``, so address translation updates exactly as in normal
        garbage collection (paper Section 3.1).  Returns the blocks
        recycled.
        """
        recycled = 0
        with self._leveler_suspended():
            for block in blocks:
                if block in self.retired_blocks:
                    continue
                if self.allocator.contains(block):
                    self.allocator.promote(block)
                    continue
                if self._evacuate(block, "swl"):
                    self.stats.forced_recycles += 1
                    recycled += 1
        return recycled

    # ------------------------------------------------------------------
    # The Cleaner's triggers (paper Section 5.1)
    # ------------------------------------------------------------------
    def _reclaim_space(self) -> None:
        """Run the Cleaner until the free pool is above the trigger level.

        Paper Section 5.1: "The Cleaners in FTL and NFTL were triggered for
        garbage collection when the percentage of free blocks was under
        0.2% of the entire flash-memory capacity."
        """
        if self.allocator.free_count > self.gc_free_blocks:
            return
        with self._leveler_suspended():
            while self.allocator.free_count <= self.gc_free_blocks:
                self._gc_once()

    @abstractmethod
    def _gc_once(self) -> None:
        """One Cleaner pass: pick a victim by the greedy cost-benefit rule
        and reclaim it; :class:`~repro.flash.errors.OutOfSpaceError` when
        nothing is reclaimable."""

    @abstractmethod
    def _evacuate(self, block: int, reason: str) -> bool:
        """Move ``block``'s live data out, erase it and pool (or retire) it.

        The driver's one evacuation step, run inside the caller's
        :meth:`_leveler_suspended` scope and bracketed by
        ``_gc_traced(reason, victim)``.  ``reason`` is ``"swl"`` for a
        forced recycle and ``"recovery"`` for a faulted block's drain; a
        driver's own Cleaner paths may take the step with theirs.  Returns
        ``False`` when the block has no data to evacuate.
        """

    # ------------------------------------------------------------------
    # Grown-bad-block management
    # ------------------------------------------------------------------
    def _on_program_fault(self, block: int) -> None:
        """Bookkeeping after a failed program on ``block``.

        The chip already marked the attempted page invalid and counted the
        program.  The block is condemned and queued for evacuation and
        retirement at the next safe point; the caller re-issues the write
        on a fresh page — the paper-era firmware response to a grown-bad
        block.
        """
        self.stats.program_faults += 1
        if block not in self._failed_blocks and block not in self.retired_blocks:
            self._failed_blocks.add(block)
            self._pending_retire.append(block)
            fault_log.info(
                "%s: program fault on block %d; block scheduled for retirement",
                self.name, block,
            )
        if self._obs is not None and self._obs.mask & M_RECOVERY:
            self._obs.emit(Recovery("reissue", block))

    def _process_pending_retirements(self) -> None:
        """Evacuate program-faulted blocks so they retire.

        Deferred to the end of the host write — a safe point where no
        relocation is in flight — so recovery never recurses into itself.
        A block the Cleaner already swept up (and so retired) in the
        meantime is skipped.  The evacuation's copies count as recovery
        copies.
        """
        if self._retiring or not self._pending_retire:
            return
        self._retiring = True
        try:
            while self._pending_retire:
                block = self._pending_retire.pop()
                if block in self.retired_blocks:
                    continue
                copies_before = self.stats.live_page_copies
                with self._leveler_suspended():
                    self._evacuate(block, "recovery")
                self.stats.recovery_copies += (
                    self.stats.live_page_copies - copies_before
                )
        finally:
            self._retiring = False

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """JSON-friendly snapshot of the driver-common mutable state.

        Subclasses extend the dict with their mapping tables.  The
        leveler, the bus, and the MTD reference are wiring, rebuilt by
        the stack constructor before ``restore_state`` runs.
        """
        return {
            "layer": self.name,
            "retired_blocks": sorted(self.retired_blocks),
            "failed_blocks": sorted(self._failed_blocks),
            "pending_retire": list(self._pending_retire),
            "scanner": self.scanner.snapshot_state(),
            "stats": {
                "host_reads": self.stats.host_reads,
                "host_writes": self.stats.host_writes,
                "gc_runs": self.stats.gc_runs,
                "live_page_copies": self.stats.live_page_copies,
                "folds": self.stats.folds,
                "forced_recycles": self.stats.forced_recycles,
                "dead_recycles": self.stats.dead_recycles,
                "erase_retries": self.stats.erase_retries,
                "program_faults": self.stats.program_faults,
                "recovery_copies": self.stats.recovery_copies,
                "recovery_erases": self.stats.recovery_erases,
                "extra": dict(sorted(self.stats.extra.items())),
            },
            "allocator": self.allocator.snapshot_state(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Overwrite driver-common state from :meth:`snapshot_state`."""
        if state["layer"] != self.name:
            raise ValueError(
                f"layer snapshot is for {state['layer']!r}, driver is "
                f"{self.name!r}"
            )
        self.retired_blocks = set(state["retired_blocks"])  # type: ignore[arg-type]
        self._failed_blocks = set(state["failed_blocks"])  # type: ignore[arg-type]
        stats = dict(state["stats"])  # type: ignore[arg-type]
        extra = stats.pop("extra")
        self.stats = LayerStats(**stats, extra=dict(extra))
        self.allocator.restore_state(state["allocator"])  # type: ignore[arg-type]
        self._pending_retire = list(state["pending_retire"])  # type: ignore[arg-type]
        self._retiring = False
        self.scanner.restore_state(state["scanner"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def failed_blocks(self) -> frozenset[int]:
        """Blocks condemned by a fault but not yet retired.

        Non-empty at the end of a run means a delivered fault's recovery
        is still in flight — the condition the fault-campaign gate treats
        as an unrecovered fault.
        """
        return frozenset(self._failed_blocks)

    @property
    def erase_counts(self) -> list[int]:
        """Per-block erase counts (the distribution behind paper Table 4)."""
        return self.mtd.erase_counts

    def erase_distribution(self) -> "EraseDistribution":
        """O(1) summary of :attr:`erase_counts` (avg/dev/max/min/total).

        Reads the chip's incremental :class:`~repro.sim.metrics.
        WearAccumulator` instead of rescanning the per-block counts;
        values are bit-identical to ``EraseDistribution.from_counts``.
        """
        return self.mtd.flash.wear.distribution()

    def utilization(self) -> float:
        """Fraction of physical pages currently holding valid data."""
        flash = self.mtd.flash
        valid = sum(
            flash.count_pages(b, PAGE_VALID) for b in range(self.geometry.num_blocks)
        )
        return valid / self.geometry.total_pages

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(geometry={self.geometry.name}, "
            f"logical_pages={self.num_logical_pages}, "
            f"leveler={'on' if self.leveler else 'off'})"
        )
