"""NFTL — the block-level mapping Flash Translation Layer (paper Section 2.2).

"NFTL adopts a block-level address translation mechanism for coarse-grained
address translation.  An LBA under NFTL is divided into a virtual block
address and a block offset. ... A VBA can be translated to a (primary)
physical block address. ... the contents of the (overwritten) write
requests are sequentially written to the replacement block.  When a
replacement block is full, valid pages in the block and its associated
primary block are merged into a new primary block ... and the previous two
blocks are erased."  (Figure 2(b).)

Implementation notes
--------------------
* Each mapped VBA owns a :class:`BlockChain`: a primary block (data at its
  home offset), an optional replacement block (overwrites appended
  sequentially), and a per-offset location table giving O(1) reads —
  equivalent to, but faster than, the backwards scan of the replacement
  block that firmware performs.  A host read of consecutive pages inside
  one VBA is one slice of that table.
* Host writes come one page at a time (``write_pages`` is ``None``): each
  page's home offset or replacement slot depends on the page before it,
  so a batch entry would only loop over :meth:`NFTL.write` (DESIGN.md 5j).
* A fold (merge) copies the most-recent content of every offset into a
  freshly allocated primary and erases the two old blocks; folds are
  forced when a replacement fills, during garbage collection, and on
  SW Leveler requests (which is how cold chains get moved).  Copied run
  by run, each source page is invalidated as its copy lands only on the
  per-page route, where a power cut can interrupt the fold; a span the
  chip takes whole leaves its sources to the erase that follows.
* Per-chain valid/invalid counts make the Cleaner's greedy cost-benefit
  scoring O(1) per probe, with the cyclic scan running over VBAs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.flash.chip import PAGE_FREE, PAGE_VALID
from repro.flash.errors import (
    FlashError,
    OutOfSpaceError,
    ProgramFaultError,
)
from repro.flash.mtd import MtdDevice
from repro.ftl.allocator import BlockAllocator
from repro.ftl.base import DEFAULT_OP_RATIO, TranslationLayer
from repro.ftl.cleaner import CyclicScanner
from repro.obs.bus import M_RECOVERY
from repro.obs.events import Recovery
from repro.util.diagnostics import fault_log

_NOWHERE = -1


@dataclass
class BlockChain:
    """Translation state of one virtual block address."""

    vba: int
    primary: int
    replacement: int | None = None
    #: Next free page in the replacement block (sequential writes only).
    repl_next: int = 0
    #: Per-offset global page index of the current content (-1 = no data).
    locations: list[int] = field(default_factory=list)
    #: Number of offsets currently holding data (fold copy cost).
    valid_offsets: int = 0
    #: Pages programmed in the primary block.
    primary_used: int = 0

    def invalid_pages(self) -> int:
        """Superseded pages across the chain (fold benefit)."""
        return self.primary_used + self.repl_next - self.valid_offsets


def _mapped_runs(locations: list[int]) -> Iterator[tuple[int, int]]:
    """Maximal ``[start, stop)`` runs of offsets that hold data."""
    offset, size = 0, len(locations)
    while offset < size:
        if locations[offset] == _NOWHERE:
            offset += 1
            continue
        try:
            stop = locations.index(_NOWHERE, offset)
        except ValueError:
            stop = size
        yield offset, stop
        offset = stop


class NFTL(TranslationLayer):
    """Coarse-grained (block-level) translation layer.

    The logical space is the physical block count minus the reserved
    blocks (``op_ratio`` of the chip, floored at the Cleaner's working
    minimum), in units of whole virtual blocks.
    """

    name = "NFTL"

    def __init__(
        self,
        mtd: MtdDevice,
        *,
        op_ratio: float = DEFAULT_OP_RATIO,
        alloc_policy: str = "lifo",
    ) -> None:
        super().__init__(mtd, op_ratio=op_ratio, alloc_policy=alloc_policy)
        geometry = self.geometry
        self.num_vbas = geometry.num_blocks - self._reserve_blocks()
        self._num_logical_pages = self.num_vbas * geometry.pages_per_block
        self._chains: list[BlockChain | None] = [None] * self.num_vbas
        #: VBAs whose chain owns a replacement block: the only chains a
        #: Cleaner pass can merge.  Derived from the chains, not serialized.
        self._replaced: set[int] = set()
        #: Physical block -> owning chain (None when free).
        self._owner: list[BlockChain | None] = [None] * geometry.num_blocks
        self.allocator = BlockAllocator(
            mtd.erase_counts, list(range(geometry.num_blocks)),
            policy=alloc_policy,
        )
        self.scanner = CyclicScanner(self.num_vbas)
        # Blocks that suffered a program fault; their owning chains fold
        # (and the blocks retire) at the next safe point.
        self._pending_retire: list[int] = []
        self._retiring = False

    # ------------------------------------------------------------------
    # Logical space
    # ------------------------------------------------------------------
    def split_lpn(self, lpn: int) -> tuple[int, int]:
        """LBA split of Section 2.2: (virtual block address, block offset)."""
        self.check_lpn(lpn)
        return divmod(lpn, self.geometry.pages_per_block)

    def chain_of(self, vba: int) -> BlockChain | None:
        """Translation state of one VBA (``None`` when never written)."""
        if not 0 <= vba < self.num_vbas:
            raise IndexError(f"VBA {vba} out of range [0, {self.num_vbas})")
        return self._chains[vba]

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------
    def read(self, lpn: int) -> bytes | None:
        if not 0 <= lpn < self._num_logical_pages:
            self.check_lpn(lpn)  # raises
        self.stats.host_reads += 1
        ppb = self.geometry.pages_per_block
        vba, offset = divmod(lpn, ppb)
        chain = self._chains[vba]
        index = _NOWHERE if chain is None else chain.locations[offset]
        if index == _NOWHERE:
            return None
        _, payload = self.mtd.read_page(*divmod(index, ppb))
        return payload

    def read_pages(self, lpns: Sequence[int]) -> int:
        """Read each logical page in order; returns the pages read.

        A unit-step range inside one VBA is one slice of its chain's
        ``locations``.  Errors as for :meth:`TranslationLayer.read_pages`.
        """
        count = total = len(lpns)
        ppb = self.geometry.pages_per_block
        chains = self._chains
        if (
            type(lpns) is range and lpns.step == 1 and total
            and 0 <= lpns.start and lpns.stop <= self._num_logical_pages
            and lpns.start // ppb == (lpns.stop - 1) // ppb
        ):
            vba, offset = divmod(lpns.start, ppb)
            chain = chains[vba]
            if chain is None:  # never written: no page reaches the chip
                self.stats.host_reads += total
                return total
            indices = chain.locations[offset:offset + total]
        else:
            count = self._in_range(lpns, total)
            indices = []
            for lpn in lpns if count == total else lpns[:count]:
                vba, offset = divmod(lpn, ppb)
                chain = chains[vba]
                indices.append(
                    _NOWHERE if chain is None else chain.locations[offset]
                )
        mapped = indices
        if _NOWHERE in indices:  # a C scan: a fully mapped span is not copied
            mapped = [index for index in indices if index != _NOWHERE]
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
        """Write at the home offset if free, else append to the replacement.

        A full replacement forces a fold first (paper: "a primary block and
        its associated replacement block had to be recycled by NFTL when
        the replacement block was full").
        """
        if not 0 <= lpn < self._num_logical_pages:
            self.check_lpn(lpn)  # raises
        self.stats.host_writes += 1
        ppb = self.geometry.pages_per_block
        vba, offset = divmod(lpn, ppb)
        chain = self._chains[vba]
        if chain is None:
            chain = self._open_chain(vba)
        while True:
            if chain.locations[offset] == _NOWHERE and not self._primary_page_used(
                chain, offset
            ):
                dest_block, dest_page = chain.primary, offset
                chain.primary_used += 1
            elif chain.replacement is None:
                replacement = self._allocate_block()
                chain.replacement = replacement
                chain.repl_next = 0
                self._replaced.add(vba)
                self._owner[replacement] = chain
                self.mtd.flash.set_block_tag(replacement, f"R{vba}")
                continue
            elif chain.repl_next < ppb:
                dest_block, dest_page = chain.replacement, chain.repl_next
                chain.repl_next += 1
            else:
                with self._leveler_suspended():
                    self._ensure_fold_headroom()
                    with self._gc_traced("fold", chain.vba):
                        self._fold(chain)
                continue
            try:
                self.mtd.write_page(dest_block, dest_page, lba=lpn, data=data)
            except ProgramFaultError:
                # The attempted page is invalid on the chip; the placement
                # bookkeeping above already accounts for it as used, so the
                # next iteration falls through to the replacement path (or
                # the next replacement page / a fold).
                self._on_program_fault(dest_block)
                continue
            break
        old = chain.locations[offset]
        if old != _NOWHERE:
            self.mtd.invalidate_pages((old,))
        else:
            chain.valid_offsets += 1
        chain.locations[offset] = dest_block * ppb + dest_page
        self._process_pending_retirements()

    def _primary_page_used(self, chain: BlockChain, offset: int) -> bool:
        """``True`` when the primary's home page for ``offset`` was programmed.

        The home page can be used while ``locations[offset]`` points at the
        replacement (the primary copy was superseded), so the chip state is
        the authority.
        """
        return self.mtd.flash.page_state(chain.primary, offset) != PAGE_FREE

    # ------------------------------------------------------------------
    # Fault recovery
    # ------------------------------------------------------------------
    def _on_program_fault(self, block: int) -> None:
        """Bookkeeping after a failed program: the chip already marked the
        attempted page invalid and counted the program."""
        self.stats.program_faults += 1
        if block not in self._failed_blocks and block not in self.retired_blocks:
            self._failed_blocks.add(block)
            self._pending_retire.append(block)
            fault_log.info(
                "NFTL: program fault on block %d; owning chain will fold "
                "and the block retire", block,
            )
        if self._obs is not None and self._obs.mask & M_RECOVERY:
            self._obs.emit(Recovery("reissue", block))

    def _process_pending_retirements(self) -> None:
        """Fold chains owning program-faulted blocks so the blocks retire.

        Deferred to the end of the host write — a safe point where no fold
        is in flight — so recovery never recurses into itself.  A faulted
        block whose chain already folded in the meantime was retired by
        that fold's erase path and is skipped here.
        """
        if self._retiring or not self._pending_retire:
            return
        self._retiring = True
        try:
            while self._pending_retire:
                block = self._pending_retire.pop()
                if block in self.retired_blocks:
                    continue
                chain = self._owner[block]
                if chain is None:
                    continue
                copies_before = self.stats.live_page_copies
                with self._leveler_suspended():
                    self._ensure_fold_headroom()
                    with self._gc_traced("recovery", chain.vba):
                        self._fold(chain)
                self.stats.recovery_copies += (
                    self.stats.live_page_copies - copies_before
                )
        finally:
            self._retiring = False

    # ------------------------------------------------------------------
    # Chain management
    # ------------------------------------------------------------------
    def _open_chain(self, vba: int) -> BlockChain:
        primary = self._allocate_block()
        chain = BlockChain(
            vba=vba,
            primary=primary,
            locations=[_NOWHERE] * self.geometry.pages_per_block,
        )
        self._chains[vba] = chain
        self._owner[primary] = chain
        self.mtd.flash.set_block_tag(primary, f"P{vba}")
        return chain

    def _allocate_block(self) -> int:
        """Allocate after making sure the Cleaner has done its share."""
        self._reclaim_space()
        return self.allocator.allocate()

    def _reclaim_space(self) -> None:
        if self.allocator.free_count > self.gc_free_blocks:
            return
        with self._leveler_suspended():
            while self.allocator.free_count <= self.gc_free_blocks:
                self._gc_once()

    def _gc_once(self) -> None:
        """One Cleaner pass: fold the least-worn qualifying chain.

        Chains qualify by the greedy cost-benefit rule; among them the one
        whose primary block has the smallest erase count wins — the
        baseline dynamic wear leveling of paper Section 5.1.  Folding a
        chain without a replacement frees no block, so such chains (and
        unwritten VBAs) are not candidates at all.
        """
        erase_counts = self.mtd.erase_counts
        candidates = [
            (chain.vba, chain.invalid_pages(), chain.valid_offsets,
             erase_counts[chain.primary])
            for chain in map(self._chains.__getitem__, self._replaced)
        ]
        victim = self.scanner.find_least_worn(candidates)
        if victim is None:
            victim = self.scanner.find_best_fallback(candidates)
        if victim is None:
            raise OutOfSpaceError(
                "garbage collection found no replacement block to merge; "
                "the logical space is too large for the physical space"
            )
        self.stats.gc_runs += 1
        chain = self._chains[victim]
        assert chain is not None
        with self._gc_traced("free-space", victim):
            self._fold(chain)

    def _ensure_fold_headroom(self) -> None:
        """A fold allocates one block before erasing two; make sure the
        pool is not empty (it cannot be while GC triggers at >= 2 free,
        but a defensive check keeps the invariant explicit)."""
        if self.allocator.free_count == 0:
            self._gc_once()

    def _fold(self, chain: BlockChain) -> None:
        """Merge a chain into a fresh primary block (Figure 2(b)).

        The most-recent content of every offset is copied to its home page
        in a new primary; the old primary and the replacement (if any) are
        erased and pooled.  Live-page copies are counted per Section 4.3.
        """
        failed_primaries: list[int] = []
        new_primary, copied = self._merge_into_fresh_primary(
            chain.vba, chain.locations, failed_primaries
        )
        self.stats.folds += 1

        drained = [chain.primary]
        if chain.replacement is not None:
            drained.append(chain.replacement)
        for block in drained:
            self._owner[block] = None
        for block in drained + failed_primaries:
            self._erase_and_release(block)

        chain.primary = new_primary
        chain.replacement = None
        self._replaced.discard(chain.vba)
        chain.repl_next = 0
        chain.primary_used = copied
        self._owner[new_primary] = chain

    def _erase_and_release(self, block: int) -> None:
        self._erase_with_recovery(block)
        self._release_or_retire(block)

    def _merge_into_fresh_primary(
        self,
        vba: int,
        locations: list[int],
        failed_primaries: list[int],
        buffered: dict[int, tuple[int, bytes | None]] | None = None,
    ) -> tuple[int, int]:
        """Copy a VBA's live pages to their home offsets in a new primary.

        ``locations`` gives each offset's page index and is re-pointed at
        the copies as they land.  The new primary is entirely free, so
        every run of mapped offsets is one superseding ``copy_span`` — a
        full chain is exactly one.  ``buffered`` (offset -> ``(lba,
        payload)`` held in RAM) is programmed instead when given.  Returns
        the new primary and the pages it holds.  The caller erases every
        source block next (``copy_span``'s ``supersede`` contract).

        A program fault restarts on another fresh primary: offsets already
        copied survive as valid pages in the faulted block (``locations``
        points at them) and drain out again; the faulted offset is read
        again.  The caller erases and retires ``failed_primaries`` once
        the merge completes.
        """
        ppb = self.geometry.pages_per_block
        mtd = self.mtd
        while True:
            new_primary = self.allocator.allocate()
            mtd.flash.set_block_tag(new_primary, f"P{vba}")
            base = new_primary * ppb
            copied = 0
            try:
                if buffered is not None:
                    for offset in sorted(buffered):
                        lba, payload = buffered[offset]
                        mtd.write_page(new_primary, offset, lba=lba, data=payload)
                        copied += 1
                else:
                    for start, stop in _mapped_runs(locations):
                        landed = stop - start
                        try:
                            mtd.copy_span(
                                locations[start:stop], new_primary, start,
                                supersede=True,
                            )
                        except FlashError as exc:
                            landed = exc.pages_done
                            raise
                        finally:
                            # What landed is the copy the chain reads now.
                            first = base + start
                            locations[start:start + landed] = range(
                                first, first + landed
                            )
                            copied += landed
            except ProgramFaultError:
                self.stats.live_page_copies += copied
                self._on_program_fault(new_primary)
                failed_primaries.append(new_primary)
                continue
            self.stats.live_page_copies += copied
            return new_primary, copied

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Driver-common state plus every block chain.

        ``_owner`` and ``_replaced`` are not serialized: both are
        derivable from the chains (each chain owns its primary and
        replacement) and are rebuilt on restore.
        """
        state = super().snapshot_state()
        chains: list[dict[str, object] | None] = []
        for chain in self._chains:
            if chain is None:
                chains.append(None)
                continue
            chains.append({
                "vba": chain.vba,
                "primary": chain.primary,
                "replacement": chain.replacement,
                "repl_next": chain.repl_next,
                "locations": list(chain.locations),
                "valid_offsets": chain.valid_offsets,
                "primary_used": chain.primary_used,
            })
        state.update({
            "num_vbas": self.num_vbas,
            "chains": chains,
            "scanner": self.scanner.snapshot_state(),
            "pending_retire": list(self._pending_retire),
        })
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        if state["num_vbas"] != self.num_vbas:
            raise ValueError(
                f"NFTL snapshot exports {state['num_vbas']} VBAs, "
                f"driver exports {self.num_vbas}"
            )
        super().restore_state(state)
        self._chains = [None] * self.num_vbas
        self._owner = [None] * self.geometry.num_blocks
        for vba, entry in enumerate(state["chains"]):  # type: ignore[arg-type]
            if entry is None:
                continue
            chain = BlockChain(
                vba=entry["vba"],
                primary=entry["primary"],
                replacement=entry["replacement"],
                repl_next=entry["repl_next"],
                locations=list(entry["locations"]),
                valid_offsets=entry["valid_offsets"],
                primary_used=entry["primary_used"],
            )
            self._chains[vba] = chain
            self._owner[chain.primary] = chain
            if chain.replacement is not None:
                self._owner[chain.replacement] = chain
        self._replaced = self._chains_with_replacement()
        self.scanner.restore_state(state["scanner"])  # type: ignore[arg-type]
        self._pending_retire = list(state["pending_retire"])  # type: ignore[arg-type]
        self._retiring = False

    # ------------------------------------------------------------------
    # Attach-time recovery
    # ------------------------------------------------------------------
    def rebuild_mapping(self) -> int:
        """Reconstruct every chain from on-flash metadata after a crash.

        Each allocated block carries an erase-unit header (``P<vba>`` or
        ``R<vba>``, the NFTL unit-header equivalent) identifying its role;
        page-level spare LBA tags rebuild the per-offset locations.
        Superseded pages are marked invalid on update, and a fold a crash
        can interrupt (the per-page route) invalidates each source right
        after its copy lands, so each logical page has at most one valid
        copy and ``locations`` rebuilds unambiguously.  Returns the number
        of chains recovered.

        Crash hardening: blocks in the chip's bad-block table are excluded
        from service.  A power loss mid-fold leaves *two* blocks tagged
        ``P<vba>`` with the chain's data split across up to three blocks;
        such claimant groups are consolidated at attach time
        (:meth:`_attach_merge`) before the chains go back into service.
        """
        geometry = self.geometry
        flash = self.mtd.flash
        ppb = geometry.pages_per_block
        self._chains = [None] * self.num_vbas
        self._owner = [None] * geometry.num_blocks
        self.retired_blocks = set(flash.bad_blocks)
        self._failed_blocks = set()
        self._pending_retire = []
        free_blocks: list[int] = []
        #: vba -> [(block, role, used pages)] for every claimant block.
        members: dict[int, list[tuple[int, str, int]]] = {}

        for block in range(geometry.num_blocks):
            if block in self.retired_blocks:
                continue
            states = flash.block_page_states(block)
            header = flash.block_tag(block)
            if states.count(PAGE_FREE) == ppb or header is None:
                free_blocks.append(block)
                continue
            role, vba = header[0], int(header[1:])
            if role not in "PR" or not 0 <= vba < self.num_vbas:
                free_blocks.append(block)  # foreign data; treat as free
                continue
            used = ppb - states.count(PAGE_FREE)
            members.setdefault(vba, []).append((block, role, used))

        # The allocator must exist before any attach-time merge: merges
        # allocate a consolidation block and release the ones they drain.
        self.allocator = BlockAllocator(
            self.mtd.erase_counts, free_blocks, policy=self.alloc_policy
        )

        for vba, group in sorted(members.items()):
            primaries = [m for m in group if m[1] == "P"]
            repls = [m for m in group if m[1] == "R"]
            if len(primaries) > 1 or len(repls) > 1:
                copies_before = self.stats.live_page_copies
                self._attach_merge(vba, group)
                self.stats.recovery_copies += (
                    self.stats.live_page_copies - copies_before
                )
                continue
            if primaries:
                block, _, used = primaries[0]
                chain = BlockChain(
                    vba=vba, primary=block, locations=[_NOWHERE] * ppb
                )
                chain.primary_used = used
                self._owner[block] = chain
                if repls:
                    rblock, _, rused = repls[0]
                    chain.replacement = rblock
                    chain.repl_next = rused
                    self._owner[rblock] = chain
            else:
                # Replacement without a surviving primary (crash mid-fold):
                # adopt it as the chain's only block.
                rblock, _, rused = repls[0]
                chain = BlockChain(
                    vba=vba, primary=rblock, locations=[_NOWHERE] * ppb
                )
                chain.primary_used = rused
                self._owner[rblock] = chain
            self._chains[vba] = chain

        recovered = 0
        for chain in self._chains:
            if chain is None:
                continue
            recovered += 1
            chain.valid_offsets = 0
            for member in (chain.primary, chain.replacement):
                if member is None:
                    continue
                for page in range(ppb):
                    if flash.page_state(member, page) != PAGE_VALID:
                        continue
                    offset = flash.page_lba(member, page) % ppb
                    chain.locations[offset] = geometry.page_index(member, page)
                    chain.valid_offsets += 1
        self._replaced = self._chains_with_replacement()
        return recovered

    def _chains_with_replacement(self) -> set[int]:
        return {
            chain.vba for chain in self._chains
            if chain is not None and chain.replacement is not None
        }

    def _attach_merge(self, vba: int, group: list[tuple[int, str, int]]) -> None:
        """Consolidate a multi-claimant VBA left by a crash mid-fold.

        Every offset still has at most one valid copy (a fold a crash can
        interrupt goes page by page, invalidating each source right after
        its copy lands), but the copies are split
        across the old primary, the replacement, and the partial new
        primary.  If one primary already holds every surviving page at its
        home offset (the crash hit after the copy phase) it is adopted
        outright; otherwise the union of valid pages is copied into a
        fresh primary.  Drained claimants are erased and pooled.
        """
        geometry = self.geometry
        flash = self.mtd.flash
        ppb = geometry.pages_per_block
        claimants = [block for block, _role, _used in group]
        fault_log.info(
            "NFTL rebuild: vba %d claimed by blocks %s; consolidating",
            vba, sorted(claimants),
        )
        # offset -> page index of the unique valid page holding its content,
        # in scan order (the order a drain reads them into RAM).
        sources: dict[int, int] = {}
        for block in claimants:
            for page in range(ppb):
                if flash.page_state(block, page) != PAGE_VALID:
                    continue
                offset = flash.page_lba(block, page) % ppb
                sources[offset] = geometry.page_index(block, page)

        adopted = next((
            (cand, used) for cand, role, used in group
            if role == "P" and all(
                index == geometry.page_index(cand, off)
                for off, index in sources.items()
            )
        ), None)
        failed_primaries: list[int] = []
        if adopted is not None:
            primary, used = adopted
            claimants.remove(primary)
        else:
            locations = [sources.get(offset, _NOWHERE) for offset in range(ppb)]
            try:
                primary, used = self._merge_into_fresh_primary(
                    vba, locations, failed_primaries
                )
            except OutOfSpaceError:
                # The crash struck a fold that had emptied the pool, so
                # there is no headroom for a copy merge.  Buffer the
                # surviving pages, drain every claimant back into the
                # pool, and rebuild the primary from the buffer — the RAM
                # buffer stands in for the reserved spare erase unit a
                # real NFTL keeps for this case.  Out of space again means
                # retirement consumed the drained blocks: end of life.
                buffered = {
                    offset: self.mtd.read_page(*divmod(locations[offset], ppb))
                    for offset in sources
                }
                for block in claimants + failed_primaries:
                    self._erase_and_release(block)
                claimants = []
                failed_primaries = []
                primary, used = self._merge_into_fresh_primary(
                    vba, locations, failed_primaries, buffered
                )

        chain = BlockChain(vba=vba, primary=primary, locations=[_NOWHERE] * ppb)
        chain.primary_used = used
        self._chains[vba] = chain
        self._owner[primary] = chain
        for block in claimants + failed_primaries:
            self._erase_and_release(block)

    # ------------------------------------------------------------------
    # Invariants (crash-consistency harness)
    # ------------------------------------------------------------------
    def assert_internal_consistency(self) -> None:
        """Cross-check chain state against the chip's page states.

        Raises :class:`AssertionError` on the first discrepancy.  Used by
        the crash-consistency harness after every simulated reboot.
        """
        geometry = self.geometry
        flash = self.mtd.flash
        ppb = geometry.pages_per_block
        free = self.allocator.free_blocks()
        overlap = free & self.retired_blocks
        if overlap:
            raise AssertionError(
                f"retired blocks present in the free pool: {sorted(overlap)}"
            )
        referenced: set[int] = set()
        for vba, chain in enumerate(self._chains):
            if chain is None:
                continue
            chain_blocks = {chain.primary}
            if chain.replacement is not None:
                chain_blocks.add(chain.replacement)
            live = 0
            for offset in range(ppb):
                index = chain.locations[offset]
                if index == _NOWHERE:
                    continue
                live += 1
                referenced.add(index)
                block, page = geometry.page_address(index)
                if block not in chain_blocks:
                    raise AssertionError(
                        f"vba {vba} offset {offset} maps outside its chain "
                        f"(block {block})"
                    )
                if flash.page_state(block, page) != PAGE_VALID:
                    raise AssertionError(
                        f"vba {vba} offset {offset} maps to non-valid page "
                        f"({block}, {page})"
                    )
                if flash.page_lba(block, page) != vba * ppb + offset:
                    raise AssertionError(
                        f"vba {vba} offset {offset}: spare tag disagrees at "
                        f"({block}, {page})"
                    )
            if live != chain.valid_offsets:
                raise AssertionError(
                    f"vba {vba}: {live} live offsets, chain believes "
                    f"{chain.valid_offsets}"
                )
        if self._replaced != self._chains_with_replacement():
            raise AssertionError(
                f"replacement index {sorted(self._replaced)} disagrees with "
                f"the chains {sorted(self._chains_with_replacement())}"
            )
        for block in range(geometry.num_blocks):
            if block in self.retired_blocks:
                continue
            for page in flash.valid_pages(block):
                if geometry.page_index(block, page) not in referenced:
                    raise AssertionError(
                        f"stale valid page ({block}, {page}) referenced by "
                        f"no chain"
                    )

    # ------------------------------------------------------------------
    # SW Leveler host interface (EraseBlockSet)
    # ------------------------------------------------------------------
    def recycle_block_range(self, blocks: range) -> int:
        """Force-fold every chain owning a block in the selected set.

        Folding moves the chain's (possibly cold) data to a fresh block and
        erases the old ones — precisely the paper's goal of "prevent[ing]
        any cold data from staying at any block for a long period of time".
        Free blocks are skipped; two blocks of the same chain fold once.
        """
        recycled = 0
        with self._leveler_suspended():
            for block in blocks:
                if block in self.retired_blocks:
                    continue  # out of service; the leveler flags the set
                chain = self._owner[block]
                if chain is None:
                    if self.allocator.contains(block):
                        # Pull the (possibly virgin) free block to the head
                        # of the free order so it joins the rotation.
                        self.allocator.promote(block)
                    continue
                self._ensure_fold_headroom()
                with self._gc_traced("swl", chain.vba):
                    self._fold(chain)
                self.stats.forced_recycles += 1
                recycled += 1
        return recycled
