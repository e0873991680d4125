"""FTL — the page-level mapping Flash Translation Layer (paper Section 2.2).

"FTL adopts a page-level address translation mechanism for fine-grained
address translation" (Figure 2(a)): a RAM table maps each logical page to
the physical (block, page) holding its current data.  Updates are
out-place: the new content goes to a free page and the old page is marked
invalid.  When free space runs low, the Cleaner reclaims blocks with the
greedy cost-benefit policy of Section 5.1, copying live pages out first.

Implementation notes
--------------------
* Three write frontiers are kept — host writes, Cleaner copies, and
  SW-Leveler cold moves — so hot, reclaimed, and cold data never share a
  destination block (see DESIGN.md, cold-data destination separation).
* Per-block valid/invalid page counts are maintained incrementally, and
  every change to them (or to wear) is reported to a
  :class:`~repro.ftl.cleaner.VictimIndex`, so a Cleaner pick looks only
  at the blocks that changed since the previous pick instead of walking
  the chip.
* Dynamic wear leveling (which the paper's baseline Cleaner already has,
  Section 1) selects the least-worn block among qualifying GC victims and
  among fully-invalid blocks reclaimed on demand.
* Free blocks are reused most-recently-freed first by default (see
  :mod:`repro.ftl.allocator` for the policy choice and its rationale).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.flash.chip import PAGE_FREE, PAGE_VALID
from repro.flash.errors import FlashError, OutOfSpaceError, ProgramFaultError
from repro.flash.mtd import MtdDevice
from repro.ftl.allocator import BlockAllocator
from repro.ftl.base import DEFAULT_OP_RATIO, TranslationLayer
from repro.ftl.cleaner import CyclicScanner, VictimIndex
from repro.util.diagnostics import fault_log

_UNMAPPED = -1


class PageMappingFTL(TranslationLayer):
    """Fine-grained (page-level) translation layer.

    Parameters are those of :class:`~repro.ftl.base.TranslationLayer`.
    The logical space is the physical space minus the reserved blocks
    (``op_ratio`` of the chip, floored at the Cleaner's working minimum).
    """

    name = "FTL"

    def __init__(
        self,
        mtd: MtdDevice,
        *,
        op_ratio: float = DEFAULT_OP_RATIO,
        alloc_policy: str = "lifo",
    ) -> None:
        super().__init__(mtd, op_ratio=op_ratio, alloc_policy=alloc_policy)
        geometry = self.geometry

        # Address translation table (Figure 2(a)) and its inverse.
        self._l2p = [_UNMAPPED] * self._num_logical_pages
        self._p2l = [_UNMAPPED] * geometry.total_pages
        # Incremental per-block page-state counts: the Cleaner's cost and
        # benefit.  Every change is reported to ``victims``.
        self._valid = [0] * geometry.num_blocks
        self._invalid = [0] * geometry.num_blocks

        self.allocator = BlockAllocator(
            mtd.erase_counts, list(range(geometry.num_blocks)),
            policy=alloc_policy,
        )
        self.scanner = CyclicScanner(geometry.num_blocks)
        self.victims = VictimIndex(
            self.scanner, geometry.pages_per_block,
            self._invalid, self._valid, mtd.erase_counts,
        )
        # Write frontiers: (block, next free page) or None when closed.
        # Host writes, Cleaner copies, and SW-Leveler cold moves each get
        # their own frontier so hot, reclaimed, and cold data never share
        # a block — mixing cold pages into the Cleaner's destination would
        # make every later collection re-copy them.
        self._host_frontier: tuple[int, int] | None = None
        self._copy_frontier: tuple[int, int] | None = None
        self._cold_frontier: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # Logical space
    # ------------------------------------------------------------------
    def mapping_of(self, lpn: int) -> tuple[int, int] | None:
        """Physical (block, page) of ``lpn``, or ``None`` when unmapped."""
        self.check_lpn(lpn)
        index = self._l2p[lpn]
        if index == _UNMAPPED:
            return None
        return self.geometry.page_address(index)

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------
    # A batch of pages is the unit of work (DESIGN.md 5j): one range
    # check, then one device span and one table-update loop per run of
    # pages.  ``write`` is the same path with a batch of one; ``read``
    # stays a single page because it hands the payload back.
    def read(self, lpn: int) -> bytes | None:
        self.check_lpn(lpn)
        self.stats.host_reads += 1
        index = self._l2p[lpn]
        if index == _UNMAPPED:
            return None
        _, payload = self.mtd.read_page(*self.geometry.page_address(index))
        return payload

    def read_pages(self, lpns: Sequence[int]) -> int:
        """Read each logical page in order; returns the pages read.

        A unit-step range inside the logical space is one slice of the
        table.  Errors as for :meth:`TranslationLayer.read_pages`.
        """
        count = total = len(lpns)
        l2p = self._l2p
        if (
            type(lpns) is range and lpns.step == 1
            and 0 <= lpns.start and lpns.stop <= self._num_logical_pages
        ):
            # Consecutive pages are consecutive table entries (Figure 2(a)).
            indices = l2p[lpns.start:lpns.stop]
        else:
            count = self._in_range(lpns, total)
            indices = [l2p[lpn] for lpn in (lpns if count == total else lpns[:count])]
        mapped = indices
        if _UNMAPPED in indices:  # a C scan: a fully mapped span is not copied
            mapped = [index for index in indices if index != _UNMAPPED]
        try:
            self.mtd.read_pages(mapped)
        except FlashError as exc:
            self._read_failed(exc, indices)
            raise
        self.stats.host_reads += count
        if count < total:
            self._reject(lpns[count], count)
        return count

    def write(self, lpn: int, data: bytes | None = None) -> None:
        """Out-place update: program a free page, invalidate the old copy."""
        self.write_pages((lpn,), None if data is None else (data,))

    def write_pages(
        self,
        lpns: Sequence[int],
        payloads: Sequence[bytes | None] | None = None,
    ) -> int:
        """Write each logical page in order; returns the pages written.

        Pages go to the host frontier run by run — as many as its block
        still holds — each run one device span and one table update.
        ``payloads``, when given, runs parallel to ``lpns``.  A
        :class:`~repro.flash.errors.FlashError` out of the batch carries
        ``pages_done``, the pages fully written before it.
        """
        total = len(lpns)
        count = self._in_range(lpns, total)
        if type(lpns) is range:
            # Materialised once: spare tags and the inverse map then
            # share one int object per page.
            lpns = list(lpns)
        ppb = self.geometry.pages_per_block
        done = 0
        try:
            while done < count:
                frontier = self._host_frontier
                if frontier is None or frontier[1] == ppb:
                    self._reclaim_space()
                    self._recycle_dead_block()
                    if frontier is not None:
                        self.victims.refile(frontier[0])  # closed
                    frontier = (self.allocator.allocate(), 0)
                block, page = frontier
                size = min(count - done, ppb - page)
                if self._pending_retire:
                    # A block awaiting retirement is drained right after
                    # the page that follows its fault: that page goes alone.
                    size = 1
                run = lpns if size == total else lpns[done:done + size]
                self._host_frontier = (block, page + size)
                try:
                    self.mtd.program_span(
                        block, page, run,
                        None if payloads is None else payloads[done:done + size],
                    )
                except FlashError as exc:
                    landed = exc.pages_done
                    self._host_frontier = (block, page + landed + 1)
                    self._map_host_run(block, page, run[:landed])
                    done += landed
                    if not isinstance(exc, ProgramFaultError):
                        raise
                    self._on_program_fault(block)
                    continue
                self._map_host_run(block, page, run)
                if self._pending_retire:
                    self._process_pending_retirements()
                done += size
        except FlashError as exc:
            self.stats.host_writes += 1  # the page in flight was accepted
            exc.pages_done = done
            raise
        if count < total:
            self._reject(lpns[count], count)
        return count

    def _map_host_run(self, block: int, page: int, run: Sequence[int]) -> None:
        """Point ``run`` at the pages just programmed; retire old copies.

        The old location is read only *after* the program landed: garbage
        collection inside the frontier advance may have relocated it.
        """
        l2p, p2l = self._l2p, self._p2l
        valid, invalid = self._valid, self._invalid
        # Each stretch of stale pages in one block is told to the victim
        # index once: the block is marked unless the index calls it
        # settled, and refiled if the stretch left it no valid page (it
        # may be dead).  The frontier ``block`` is vetoed by every pick
        # while open, and refiled when it closes.
        victims = self.victims
        mark, refile, settled = victims.marked.append, victims.refile, victims.settled
        last = block
        ppb = self.geometry.pages_per_block
        stale = []
        for index, lpn in enumerate(run, block * ppb + page):
            old = l2p[lpn]
            l2p[lpn] = index
            p2l[index] = lpn
            if old != _UNMAPPED:
                p2l[old] = _UNMAPPED
                old_block = old // ppb
                valid[old_block] -= 1
                invalid[old_block] += 1
                stale.append(old)
                if old_block != last:
                    if not valid[last]:
                        refile(last)
                    last = old_block
                    if not settled[old_block]:
                        mark(old_block)
        valid[block] += len(run)
        if not valid[last]:
            refile(last)
        self.stats.host_writes += len(run)
        if stale:
            self.mtd.invalidate_pages(stale)

    # ------------------------------------------------------------------
    # Space management
    # ------------------------------------------------------------------
    def _on_program_fault(self, block: int) -> None:
        """The faulted page counts invalid and the block's frontier closes;
        then the driver-common bookkeeping."""
        self._invalid[block] += 1
        self.victims.refile(block)
        self._close_frontiers(block)
        super()._on_program_fault(block)

    def _recycle_dead_block(self) -> None:
        """Erase-on-demand: reclaim one fully-invalid block, if any.

        Firmware of the paper's era erases reclaimable units lazily when a
        new block is needed, so steady-state churn reuses its own dead
        blocks instead of consuming untouched ones — which is what leaves
        the cold majority of the chip at near-zero erase counts in the
        paper's baselines (Table 4).  The least-worn dead block is chosen
        (the dynamic wear leveling of Section 1); copy-based garbage
        collection still engages at the Section 5.1 free-space trigger.
        Under LIFO allocation the reclaimed block is allocated next.
        """
        frontiers = self._frontier_blocks()
        in_free = self.allocator.contains
        valid = self._valid

        def dead(block: int) -> bool:
            return not (in_free(block) or block in frontiers or valid[block])

        victim = self.victims.dead(dead)
        if victim is not None:
            self.stats.dead_recycles += 1
            with self._leveler_suspended():
                self._evacuate(victim, "dead")

    def _frontier_blocks(self) -> set[int]:
        blocks = set()
        for frontier in (self._host_frontier, self._copy_frontier,
                         self._cold_frontier):
            if frontier is not None:
                blocks.add(frontier[0])
        return blocks

    def _close_frontiers(self, block: int) -> None:
        """Close any write frontier open on ``block``."""
        if self._host_frontier is not None and self._host_frontier[0] == block:
            self._host_frontier = None
        if self._copy_frontier is not None and self._copy_frontier[0] == block:
            self._copy_frontier = None
        if self._cold_frontier is not None and self._cold_frontier[0] == block:
            self._cold_frontier = None

    def _gc_once(self) -> None:
        """One Cleaner pass: recycle the least-worn qualifying victim.

        Victims qualify by the greedy cost-benefit rule over the per-block
        invalid/valid tallies; among them the block with the smallest
        erase count wins — the baseline dynamic wear leveling of paper
        Section 5.1.  Free, retired, and frontier blocks never qualify.
        """
        frontiers = self._frontier_blocks()
        retired = self.retired_blocks
        in_free = self.allocator.contains

        def in_service(block: int) -> bool:
            return not (in_free(block) or block in retired or block in frontiers)

        victim = self.victims.least_worn(in_service)
        if victim is None:
            victim = self.victims.fallback(in_service)
        if victim is None:
            raise OutOfSpaceError(
                "garbage collection found no block with reclaimable pages; "
                "the logical space is too large for the physical space"
            )
        self.stats.gc_runs += 1
        self._evacuate(victim, "free-space")

    def _evacuate(self, block: int, reason: str) -> bool:
        """Close any frontier on ``block``, then relocate and erase it.

        A forced recycle (``"swl"``) copies to the cold frontier; every
        other reason to the Cleaner's.
        """
        self._close_frontiers(block)
        with self._gc_traced(reason, block):
            self._relocate_and_erase(block, cold=reason == "swl")
        return True

    def _relocate_and_erase(self, block: int, *, cold: bool = False) -> None:
        """Copy every live page out of ``block``, erase it, pool it.

        ``cold=True`` routes the copies to the dedicated cold frontier
        (SW-Leveler moves), keeping relocated cold data out of the
        Cleaner's destination blocks.  Live pages move run by run, as many
        as the destination frontier's block still holds.
        """
        attr = "_cold_frontier" if cold else "_copy_frontier"
        ppb = self.geometry.pages_per_block
        base = block * ppb
        live = []
        if self._valid[block]:  # a dead block has nothing to copy out
            live = [
                index for index, lpn in enumerate(self._p2l[base:base + ppb], base)
                if lpn != _UNMAPPED
            ]
        done = 0
        carry = None
        while done < len(live):
            frontier = getattr(self, attr)
            if frontier is None or frontier[1] == ppb:
                if frontier is not None:
                    self.victims.refile(frontier[0])  # closed
                # No recursive GC here: the Cleaner's trigger threshold
                # guarantees a free block exists.
                frontier = (self.allocator.allocate(), 0)
            dest_block, dest_page = frontier
            sources = live[done:done + ppb - dest_page]
            setattr(self, attr, (dest_block, dest_page + len(sources)))
            try:
                self.mtd.copy_span(sources, dest_block, dest_page, carry)
            except FlashError as exc:
                landed = exc.pages_done
                setattr(self, attr, (dest_block, dest_page + landed + 1))
                self._map_copied_run(block, sources[:landed], dest_block, dest_page)
                done += landed
                if not isinstance(exc, ProgramFaultError):
                    raise
                # The faulted page's source was read; only its program
                # re-issues, on a fresh page.
                carry = exc.carry
                self._on_program_fault(dest_block)
                continue
            carry = None
            self._map_copied_run(block, sources, dest_block, dest_page)
            done += len(sources)
        self._erase_with_recovery(block)
        self._valid[block] = 0
        self._invalid[block] = 0
        self.victims.refile(block)
        self._release_or_retire(block)

    def _map_copied_run(
        self, block: int, sources: Sequence[int], dest_block: int, dest_page: int
    ) -> None:
        """Re-point ``block``'s pages at ``sources`` to their copies in a run."""
        l2p, p2l = self._l2p, self._p2l
        ppb = self.geometry.pages_per_block
        for dest, source in enumerate(sources, dest_block * ppb + dest_page):
            lpn = p2l[source]
            p2l[source] = _UNMAPPED
            p2l[dest] = lpn
            l2p[lpn] = dest
        self._valid[dest_block] += len(sources)
        self._valid[block] -= len(sources)
        self.victims.refile(block)
        self.stats.live_page_copies += len(sources)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Driver-common state plus the page-level mapping tables."""
        state = super().snapshot_state()
        state.update({
            "num_logical_pages": self._num_logical_pages,
            "l2p": list(self._l2p),
            "p2l": list(self._p2l),
            "valid": list(self._valid),
            "invalid": list(self._invalid),
            "host_frontier": self._host_frontier,
            "copy_frontier": self._copy_frontier,
            "cold_frontier": self._cold_frontier,
        })
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        if state["num_logical_pages"] != self._num_logical_pages:
            raise ValueError(
                f"FTL snapshot exports {state['num_logical_pages']} logical "
                f"pages, driver exports {self._num_logical_pages}"
            )
        super().restore_state(state)
        self._l2p = list(state["l2p"])  # type: ignore[arg-type]
        self._p2l = list(state["p2l"])  # type: ignore[arg-type]
        self._valid = list(state["valid"])  # type: ignore[arg-type]
        self._invalid = list(state["invalid"])  # type: ignore[arg-type]
        self.victims.rebuild(self._invalid, self._valid, self.mtd.erase_counts)

        def frontier(value: object) -> tuple[int, int] | None:
            if value is None:
                return None
            block, page = value  # type: ignore[misc]
            return (block, page)

        self._host_frontier = frontier(state["host_frontier"])
        self._copy_frontier = frontier(state["copy_frontier"])
        self._cold_frontier = frontier(state["cold_frontier"])

    # ------------------------------------------------------------------
    # Attach-time recovery (Figure 2(a): the table lives in RAM)
    # ------------------------------------------------------------------
    def rebuild_mapping(self) -> int:
        """Reconstruct the translation table from spare-area tags.

        Scans every page's spare LBA tag and state — what a real FTL does
        when the device is attached and its RAM table is gone.  Returns the
        number of mappings recovered.  Frontiers are closed; free blocks
        are re-pooled.

        Crash hardening: blocks in the chip's bad-block table are excluded
        from service, and a logical page found on two physical pages — a
        power loss between a Cleaner copy and the source-block erase — is
        resolved by invalidating the earlier-seen copy (both hold identical
        content, so either is correct).
        """
        geometry = self.geometry
        flash = self.mtd.flash
        self._l2p = [_UNMAPPED] * self._num_logical_pages
        self._p2l = [_UNMAPPED] * geometry.total_pages
        self._valid = [0] * geometry.num_blocks
        self._invalid = [0] * geometry.num_blocks
        self.retired_blocks = set(flash.bad_blocks)
        self._failed_blocks = set()
        self._pending_retire = []
        free_blocks: list[int] = []
        recovered = 0
        for block in range(geometry.num_blocks):
            if block in self.retired_blocks:
                continue
            states = flash.block_page_states(block)
            if states.count(PAGE_FREE) == len(states):
                free_blocks.append(block)
                continue
            for page, state in enumerate(states):
                if state != PAGE_VALID:
                    if state != PAGE_FREE:
                        self._invalid[block] += 1
                    continue
                lpn = flash.page_lba(block, page)
                index = geometry.page_index(block, page)
                if 0 <= lpn < self._num_logical_pages:
                    prev = self._l2p[lpn]
                    if prev != _UNMAPPED:
                        prev_block, prev_page = geometry.page_address(prev)
                        self.mtd.invalidate_page(prev_block, prev_page)
                        self._p2l[prev] = _UNMAPPED
                        self._valid[prev_block] -= 1
                        self._invalid[prev_block] += 1
                        recovered -= 1
                        fault_log.debug(
                            "rebuild: duplicate copy of lpn %d at "
                            "(%d, %d) superseded", lpn, prev_block, prev_page,
                        )
                    self._l2p[lpn] = index
                    self._p2l[index] = lpn
                    self._valid[block] += 1
                    recovered += 1
        self.allocator = BlockAllocator(
            self.mtd.erase_counts, free_blocks, policy=self.alloc_policy
        )
        self.victims.rebuild(self._invalid, self._valid, self.mtd.erase_counts)
        self._host_frontier = None
        self._copy_frontier = None
        self._cold_frontier = None
        return recovered

    # ------------------------------------------------------------------
    # Invariants (crash-consistency harness)
    # ------------------------------------------------------------------
    def assert_internal_consistency(self) -> None:
        """Cross-check the RAM tables against the chip's page states.

        Raises :class:`AssertionError` on the first discrepancy.  Used by
        the crash-consistency harness after every simulated reboot.
        """
        geometry = self.geometry
        flash = self.mtd.flash
        free = set(self.allocator.free_blocks())
        overlap = free & self.retired_blocks
        if overlap:
            raise AssertionError(
                f"retired blocks present in the free pool: {sorted(overlap)}"
            )
        for lpn, index in enumerate(self._l2p):
            if index == _UNMAPPED:
                continue
            if self._p2l[index] != lpn:
                raise AssertionError(
                    f"l2p/p2l disagree for lpn {lpn}: p2l[{index}] = "
                    f"{self._p2l[index]}"
                )
            block, page = geometry.page_address(index)
            if flash.block_page_states(block)[page] != PAGE_VALID:
                raise AssertionError(
                    f"lpn {lpn} maps to non-valid page ({block}, {page})"
                )
        for block in range(geometry.num_blocks):
            if block in self.retired_blocks:
                continue
            valid = flash.block_page_states(block).count(PAGE_VALID)
            if valid != self._valid[block]:
                raise AssertionError(
                    f"block {block}: chip holds {valid} valid pages, "
                    f"driver believes {self._valid[block]}"
                )
