"""Behavioural NAND flash chip simulator.

Models exactly the properties the paper's experiments depend on:

* a chip is an array of erase blocks, each a fixed number of pages
  (Section 1);
* reads and programs are page operations, erase is a block operation;
* a programmed page cannot be reprogrammed until its block is erased
  (the out-place-update constraint that creates the wear-leveling problem);
* every block has a rated erase endurance; the first block to exceed it
  defines the *first failure time* (Section 5.1), and — matching the
  paper's Table 4 methodology — the chip keeps operating after wear-out;
* each page carries a small spare-area record (the logical address tag and
  status of Figure 2(a)).

Data payloads are optional: wear-leveling behaviour depends only on page
*state*, so by default the simulator tracks states and spare data without
storing user bytes.  Tests that verify end-to-end data integrity enable
``store_data``.  The chip emits only erase events; reads and programs are
emitted by the MTD (:mod:`repro.flash.mtd`), which owns the device clock.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.flash.errors import (
    AddressError,
    PowerLossError,
    ProgramError,
    ProgramFaultError,
)
from repro.flash.geometry import FlashGeometry
from repro.obs.bus import M_ERASE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fault.injector import FaultInjector
    from repro.obs.bus import BusLike
    from repro.sim.metrics import EraseDistribution, WearAccumulator

# Page states, stored one byte per page.
PAGE_FREE = 0
PAGE_VALID = 1
PAGE_INVALID = 2

_VALID = bytes([PAGE_VALID])

_STATE_NAMES = {PAGE_FREE: "free", PAGE_VALID: "valid", PAGE_INVALID: "invalid"}


@dataclass(frozen=True)
class FirstFailure:
    """Record of the first block wear-out event on a chip."""

    block: int
    erase_ordinal: int  # chip-wide erase count at the moment of failure
    erase_count: int    # the failing block's own count (== endurance + 1)


@dataclass
class OpCounters:
    """Cumulative operation counts for one chip."""

    reads: int = 0
    programs: int = 0
    erases: int = 0

    def snapshot(self) -> "OpCounters":
        return OpCounters(self.reads, self.programs, self.erases)


class NandFlash:
    """Simulated NAND chip.

    The chip has one end-of-life model, the paper's: erasing a block
    beyond its endurance is recorded (:attr:`first_failure`,
    :attr:`worn_blocks`) and the simulation continues, as in the
    paper's Table 4 runs.

    Parameters
    ----------
    geometry:
        Chip organization (:class:`~repro.flash.geometry.FlashGeometry`).
    store_data:
        When ``True``, page payloads are stored and returned by
        :meth:`read`; otherwise reads return ``None`` payloads.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        *,
        store_data: bool = False,
    ) -> None:
        self.geometry = geometry
        self.store_data = store_data

        total_pages = geometry.total_pages
        self._num_blocks = geometry.num_blocks
        self._ppb = geometry.pages_per_block
        self._states = bytearray(total_pages)            # PAGE_FREE
        self._spare_lba = [-1] * total_pages             # logical tag per page
        self._block_tags: dict[int, str] = {}            # erase-unit headers
        self._data: dict[int, bytes] = {}                # page index -> payload
        self.erase_counts = [0] * geometry.num_blocks
        # Deferred import: repro.sim pulls in the FTL factory, which pulls
        # in this module — a runtime import here is safe in every order
        # because by construction time this module is fully initialized.
        from repro.sim.metrics import WearAccumulator

        #: Running erase-count distribution, maintained O(1) per erase so
        #: wear sampling never rescans ``erase_counts`` (see
        #: :class:`~repro.sim.metrics.WearAccumulator`).
        self.wear: WearAccumulator = WearAccumulator(geometry.num_blocks)
        self.counters = OpCounters()
        self.worn_blocks: set[int] = set()
        self.first_failure: FirstFailure | None = None
        #: Fired once, when :attr:`first_failure` transitions from
        #: ``None``.  A :class:`~repro.array.DeviceArray` hangs its
        #: any-shard-failed flag here so its per-request failure poll is
        #: O(1) until a failure actually exists.
        self.failure_sink: Callable[[], None] | None = None
        # Stored as an immutable tuple: every mutation rebinds the name,
        # so an in-flight dispatch loop keeps iterating its own snapshot
        # even when a listener unsubscribes (itself or others) mid-fire.
        self._erase_listeners: tuple[Callable[[int], None], ...] = ()
        #: Grown-bad blocks, marked by the translation layer at retirement.
        #: Conceptually the on-flash bad-block table: it survives "reboots"
        #: of the RAM layers above, so attach-time scans can skip them.
        self.bad_blocks: set[int] = set()
        self._injector: FaultInjector | None = None
        self._obs: BusLike | None = None

    # ------------------------------------------------------------------
    # Fault injection and bad-block marks
    # ------------------------------------------------------------------
    @property
    def injector(self) -> "FaultInjector | None":
        """The attached fault injector, or ``None`` (the default)."""
        return self._injector

    def attach_injector(self, injector: "FaultInjector") -> None:
        """Consult ``injector`` on every program/erase/read from now on.

        The injector's bit-error and wear models are sized from this
        chip's geometry unless already configured.
        """
        if injector.page_bits is None:
            injector.page_bits = self.geometry.page_size * 8
        if injector.endurance is None:
            injector.endurance = self.geometry.endurance
        self._injector = injector

    def attach_bus(self, bus: "BusLike | None") -> None:
        """Emit erase events on ``bus`` from now on (``None``: stop)."""
        self._obs = bus

    def mark_bad(self, block: int) -> None:
        """Record ``block`` in the on-flash grown-bad-block table."""
        self._check_block(block)
        self.bad_blocks.add(block)

    # ------------------------------------------------------------------
    # Address validation
    # ------------------------------------------------------------------
    def _check_block(self, block: int) -> None:
        if not self.geometry.contains_block(block):
            raise AddressError(
                f"block {block} out of range [0, {self.geometry.num_blocks})",
                block=block,
            )

    def _check_page(self, block: int, page: int) -> int:
        # Hot path: one flattened bounds test instead of two range checks.
        if 0 <= page < self._ppb and 0 <= block < self._num_blocks:
            return block * self._ppb + page
        raise AddressError(
            f"page ({block}, {page}) out of range for geometry "
            f"{self.geometry.name}",
            block=block,
            page=page,
        )

    # ------------------------------------------------------------------
    # Primitive operations
    # ------------------------------------------------------------------
    def read(self, block: int, page: int) -> tuple[int, bytes | None]:
        """Read one page; returns ``(spare_lba, payload)``.

        ``spare_lba`` is -1 for a free page.  ``payload`` is ``None``
        unless ``store_data`` is enabled and the page holds data.
        """
        index = self._check_page(block, page)
        if self._injector is not None:
            self._injector.on_read(block, page)
        self.counters.reads += 1
        return self._spare_lba[index], self._data.get(index)

    def program(
        self,
        block: int,
        page: int,
        *,
        lba: int,
        data: bytes | None = None,
    ) -> None:
        """Program one free page with a logical tag and optional payload.

        Raises :class:`ProgramError` on overwrite of a non-free page; pages
        of a block may be programmed in any order (NFTL's home offsets).
        """
        index = self._check_page(block, page)
        if self._states[index] != PAGE_FREE:
            raise ProgramError(
                f"page ({block}, {page}) is {_STATE_NAMES[self._states[index]]}; "
                "NAND pages must be erased before reprogramming",
                block=block,
                page=page,
            )
        if self._injector is not None:
            try:
                self._injector.on_program(block, page)
            except PowerLossError:
                # A program interrupted by power loss leaves the page
                # half-programmed: unreadable garbage that fails ECC at
                # the next attach scan — modelled as the invalid state
                # with no spare tag.
                self._states[index] = PAGE_INVALID
                self._injector.note_torn_page()
                raise
            except ProgramFaultError:
                # Program failure: charge moved but verification failed.
                # The page is unusable until the block is erased, and the
                # attempt still counts as device activity.
                self._states[index] = PAGE_INVALID
                self.counters.programs += 1
                raise
        self._states[index] = PAGE_VALID
        self._spare_lba[index] = lba
        if self.store_data and data is not None:
            self._data[index] = bytes(data)
        self.counters.programs += 1

    def invalidate(self, block: int, page: int) -> None:
        """Mark a valid page invalid (out-place update of its logical data)."""
        index = self._check_page(block, page)
        if self._states[index] != PAGE_VALID:
            raise ProgramError(
                f"cannot invalidate page ({block}, {page}): it is "
                f"{_STATE_NAMES[self._states[index]]}",
                block=block,
                page=page,
            )
        self._states[index] = PAGE_INVALID

    # ------------------------------------------------------------------
    # Span primitives (DESIGN.md 5j)
    # ------------------------------------------------------------------
    # Each does the work of a run of per-page calls at once and returns
    # ``True``, or changes nothing and returns ``False`` — because the run
    # must go page by page (:meth:`_watched`) or a per-page call would
    # raise in it.  The caller then issues the per-page calls, so faults
    # strike and errors surface exactly where they always did.
    def _watched(self) -> bool:
        """``True`` when a run must go page by page: an injector draws per
        operation (and may cut the run short), payloads travel per page."""
        return self._injector is not None or self.store_data

    def _free_run(self, block: int, first_page: int, count: int) -> int:
        """Page index of an in-range, entirely free run; -1 otherwise."""
        if not (
            0 <= first_page
            and first_page + count <= self._ppb
            and 0 <= block < self._num_blocks
        ):
            return -1
        start = block * self._ppb + first_page
        if self._states.count(PAGE_FREE, start, start + count) != count:
            return -1
        return start

    def program_span(self, block: int, first_page: int, lbas: Sequence[int]) -> bool:
        """Program ``len(lbas)`` consecutive free pages from ``first_page``."""
        count = len(lbas)
        if self._watched():
            return False
        start = self._free_run(block, first_page, count)
        if start < 0:
            return False
        self._states[start:start + count] = _VALID * count
        self._spare_lba[start:start + count] = lbas
        self.counters.programs += count
        return True

    def copy_span(self, sources: Sequence[int], block: int, first_page: int) -> bool:
        """Read the pages at indices ``sources`` and program them as one run.

        The Cleaner's live-page relocation: spare tags travel with the
        pages; the sources stay as they are (their block is erased next).
        One ``min`` rejects a negative source (a list would wrap it); the
        tag gather, run before anything is written, declines on a source
        past the end.
        """
        count = len(sources)
        if self._watched():
            return False
        start = self._free_run(block, first_page, count)
        if start < 0 or min(sources, default=0) < 0:
            return False
        spare = self._spare_lba
        try:
            tags = [spare[index] for index in sources]
        except IndexError:
            return False
        spare[start:start + count] = tags
        self._states[start:start + count] = _VALID * count
        self.counters.reads += count
        self.counters.programs += count
        return True

    def read_pages(self, indices: Sequence[int]) -> bool:
        """Read the pages at ``indices`` for their side effects only."""
        count = len(indices)
        if self._watched() or (
            count and not (0 <= min(indices) and max(indices) < len(self._states))
        ):
            return False
        self.counters.reads += count
        return True

    def invalidate_pages(self, indices: Sequence[int]) -> None:
        """:meth:`invalidate` each page index of ``indices``, in order."""
        states = self._states
        total = len(states)
        for index in indices:
            if 0 <= index < total and states[index] == PAGE_VALID:
                states[index] = PAGE_INVALID
            else:  # raises what the per-page call raises
                self.invalidate(*divmod(index, self._ppb))

    def erase(self, block: int) -> None:
        """Erase one block, freeing all of its pages and bumping wear.

        Records the first wear-out event; a worn block stays in service.
        Erase listeners run after the erase completes (the Cleaner uses
        one to trigger SWL-BETUpdate).

        With a fault injector attached the erase may fail before any state
        change: a :class:`~repro.flash.errors.TransientEraseError` leaves
        pages, erase counts, and listeners untouched, so a driver retry
        models exactly one more attempt.
        """
        self._check_block(block)
        if self._injector is not None:
            self._injector.on_erase(block, self.erase_counts[block])
        previous = self.erase_counts[block]
        self.erase_counts[block] = previous + 1
        self.wear.record_erase(block, previous)
        self.counters.erases += 1
        if self.erase_counts[block] > self.geometry.endurance:
            if block not in self.worn_blocks:
                self.worn_blocks.add(block)
                if self.first_failure is None:
                    self.first_failure = FirstFailure(
                        block=block,
                        erase_ordinal=self.counters.erases,
                        erase_count=self.erase_counts[block],
                    )
                    if self.failure_sink is not None:
                        self.failure_sink()
        start = block * self._ppb
        stop = start + self._ppb
        self._states[start:stop] = bytes(self._ppb)  # PAGE_FREE
        self._spare_lba[start:stop] = [-1] * self._ppb
        if self._data:
            for index in range(start, stop):
                self._data.pop(index, None)
        self._block_tags.pop(block, None)
        obs = self._obs
        if obs is not None and obs.mask & M_ERASE:
            # Before the listeners: SWL work a listener triggers then
            # traces causally after the erase that provoked it.
            obs.emit_erase(block, self.erase_counts[block])
        for listener in self._erase_listeners:
            listener(block)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def add_erase_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with the block number on every erase."""
        self._erase_listeners = self._erase_listeners + (listener,)

    def remove_erase_listener(self, listener: Callable[[int], None]) -> None:
        """Unregister one registration of ``listener``; absent is a no-op.

        Idempotent by design: a leveler detached both explicitly and by a
        power-loss reset must not blow up the second time.  A dispatch in
        progress keeps firing its pre-removal snapshot.
        """
        remaining = list(self._erase_listeners)
        if listener in remaining:
            remaining.remove(listener)
            self._erase_listeners = tuple(remaining)

    def clear_erase_listeners(self) -> None:
        """Drop every erase listener (RAM wiring lost at power loss).

        The crash-consistency harness calls this when "rebooting": the
        listeners belong to the previous session's leveler, which no
        longer exists.
        """
        self._erase_listeners = ()

    def set_block_tag(self, block: int, tag: str) -> None:
        """Write a small erase-unit header for ``block``.

        Real translation layers stamp each allocated erase unit with its
        role (e.g. NFTL's unit header carrying the virtual unit number),
        stored in the spare area of the block's first page; attach-time
        scans read it back.  Cleared by erase.
        """
        self._check_block(block)
        self._block_tags[block] = tag

    def block_tag(self, block: int) -> str | None:
        """The erase-unit header of ``block``, or ``None`` when unset."""
        self._check_block(block)
        return self._block_tags.get(block)

    def page_state(self, block: int, page: int) -> int:
        """State constant of one page (PAGE_FREE / PAGE_VALID / PAGE_INVALID)."""
        return self._states[self._check_page(block, page)]

    def page_lba(self, block: int, page: int) -> int:
        """Spare-area logical tag of one page (-1 when free)."""
        return self._spare_lba[self._check_page(block, page)]

    def block_page_states(self, block: int) -> bytes:
        """States of every page in ``block`` as a bytes object."""
        self._check_block(block)
        start = block * self.geometry.pages_per_block
        return bytes(self._states[start:start + self.geometry.pages_per_block])

    def count_pages(self, block: int, state: int) -> int:
        """Number of pages of ``block`` in the given state."""
        return self.block_page_states(block).count(state)

    def valid_pages(self, block: int) -> list[int]:
        """Page offsets within ``block`` that currently hold valid data."""
        states = self.block_page_states(block)
        return [page for page, s in enumerate(states) if s == PAGE_VALID]

    def is_block_free(self, block: int) -> bool:
        """``True`` when every page of ``block`` is free (fully erased)."""
        states = self.block_page_states(block)
        return states.count(PAGE_FREE) == len(states)

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """JSON-friendly snapshot of all durable chip state.

        Covers everything a power cycle would preserve on real media
        (page states, spare tags, erase-unit headers, payloads, the
        grown-bad-block table) plus the simulator's wear accounting
        (erase counts, :class:`~repro.sim.metrics.WearAccumulator`
        moments, worn blocks, the first-failure record, op counters).
        RAM wiring — erase listeners, the injector, the telemetry bus —
        is deliberately absent: it is rebuilt by whoever reconstructs
        the stack around the restored chip.
        """
        failure = self.first_failure
        return {
            "geometry": {
                "name": self.geometry.name,
                "num_blocks": self.geometry.num_blocks,
                "pages_per_block": self.geometry.pages_per_block,
                "page_size": self.geometry.page_size,
                "endurance": self.geometry.endurance,
                "cell_type": self.geometry.cell_type.name,
            },
            "store_data": self.store_data,
            "states": bytes(self._states).hex(),
            "spare_lba": list(self._spare_lba),
            "block_tags": [[block, tag] for block, tag
                           in sorted(self._block_tags.items())],
            "data": [[index, payload.hex()] for index, payload
                     in sorted(self._data.items())],
            "erase_counts": list(self.erase_counts),
            "wear": self.wear.snapshot_state(),
            "counters": {
                "reads": self.counters.reads,
                "programs": self.counters.programs,
                "erases": self.counters.erases,
            },
            "worn_blocks": sorted(self.worn_blocks),
            "first_failure": None if failure is None else {
                "block": failure.block,
                "erase_ordinal": failure.erase_ordinal,
                "erase_count": failure.erase_count,
            },
            "bad_blocks": sorted(self.bad_blocks),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Overwrite chip state in place from :meth:`snapshot_state`.

        In place matters: the allocator and MTD hold live references to
        ``erase_counts`` and ``wear``, so both are mutated rather than
        rebound.  Raises ``ValueError`` when the snapshot was taken on a
        different geometry.
        """
        geometry = state["geometry"]
        assert isinstance(geometry, dict)
        mine = {
            "name": self.geometry.name,
            "num_blocks": self.geometry.num_blocks,
            "pages_per_block": self.geometry.pages_per_block,
            "page_size": self.geometry.page_size,
            "endurance": self.geometry.endurance,
            "cell_type": self.geometry.cell_type.name,
        }
        if geometry != mine:
            raise ValueError(
                f"chip snapshot geometry {geometry} does not match {mine}"
            )
        states = bytes.fromhex(state["states"])  # type: ignore[arg-type]
        if len(states) != len(self._states):
            raise ValueError(
                f"snapshot has {len(states)} page states, chip has "
                f"{len(self._states)}"
            )
        self._states[:] = states
        self._spare_lba[:] = state["spare_lba"]  # type: ignore[index]
        self._block_tags = {block: tag for block, tag in state["block_tags"]}  # type: ignore[union-attr]
        self._data = {index: bytes.fromhex(payload)
                      for index, payload in state["data"]}  # type: ignore[union-attr]
        self.erase_counts[:] = state["erase_counts"]  # type: ignore[index]
        self.wear.restore_state(state["wear"])  # type: ignore[arg-type]
        counters = state["counters"]
        assert isinstance(counters, dict)
        self.counters.reads = counters["reads"]
        self.counters.programs = counters["programs"]
        self.counters.erases = counters["erases"]
        self.worn_blocks = set(state["worn_blocks"])  # type: ignore[arg-type]
        failure = state["first_failure"]
        if failure is None:
            self.first_failure = None
        else:
            assert isinstance(failure, dict)
            self.first_failure = FirstFailure(
                block=failure["block"],
                erase_ordinal=failure["erase_ordinal"],
                erase_count=failure["erase_count"],
            )
        self.bad_blocks = set(state["bad_blocks"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Wear statistics
    # ------------------------------------------------------------------
    def max_erase_count(self) -> int:
        return max(self.erase_counts)

    def min_erase_count(self) -> int:
        return min(self.erase_counts)

    def total_erases(self) -> int:
        return self.counters.erases

    def remaining_life(self, block: int) -> int:
        """Erase cycles left before ``block`` wears out (may be negative)."""
        self._check_block(block)
        return self.geometry.endurance - self.erase_counts[block]

    def __repr__(self) -> str:
        return (
            f"NandFlash({self.geometry.name}, blocks={self.geometry.num_blocks}, "
            f"erases={self.counters.erases}, worn={len(self.worn_blocks)})"
        )
