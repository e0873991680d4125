"""The SW Leveler — paper Section 3.3, Algorithms 1 and 2.

The SW Leveler sits beside the Allocator and the Cleaner of a Flash
Translation Layer driver (Figure 1).  It owns a
:class:`~repro.core.bet.BlockErasingTable` and two procedures:

* **SWL-BETUpdate** (:meth:`SWLeveler.on_block_erased`) — invoked by the
  Cleaner on every block erase; updates ``ecnt``, ``fcnt`` and the flags.
* **SWL-Procedure** (:meth:`SWLeveler.run_procedure`) — invoked when the
  unevenness level ``ecnt / fcnt`` reaches the threshold ``T``; walks the
  cyclic cursor ``findex`` to zero-flag block sets and asks the Cleaner to
  garbage collect them, forcing cold data to move, until either the
  unevenness level drops below ``T`` or every flag is set (then the BET is
  reset, ``findex`` is re-seeded randomly, and a new resetting interval
  starts).

The leveler is FTL-agnostic: it talks to the translation layer only
through the :class:`WearLevelingHost` protocol, so the same object serves
FTL, NFTL, or any future mapping scheme — the paper's stated modularity
goal ("without many modifications to popular implementation designs").
"""

from __future__ import annotations

import copy
import dataclasses
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

from repro.core.bet import BetStore, BlockErasingTable
from repro.core.policies import SelectionPolicy, SequentialSelection, check_knobs
from repro.obs.bus import M_BET_RESET, M_SWL_INVOKE
from repro.obs.events import BetReset as BetResetEvent
from repro.obs.events import SwlInvoke as SwlInvokeEvent
from repro.util.diagnostics import leveler_log
from repro.util.rng import below, make_rng, rng_state_from_json, rng_state_to_json

if TYPE_CHECKING:
    from repro.array.coordinator import WearCoordinator
    from repro.flash.geometry import FlashGeometry
    from repro.flash.mtd import MtdDevice
    from repro.obs.bus import BusLike


class WearLevelingHost(Protocol):
    """What a wear leveler needs from a Flash Translation Layer driver.

    The paper's leveler calls only the two methods; ``mtd`` and
    ``geometry`` are what the registry reads to build a challenger (the
    live ``mtd.erase_counts`` list a counter-based mechanism shares,
    ``geometry.page_size`` for a page cache).
    """

    mtd: "MtdDevice"
    geometry: "FlashGeometry"

    def recycle_block_range(self, blocks: range) -> int:
        """Garbage collect every block in ``blocks`` (EraseBlockSet).

        Valid (cold) data in those blocks must be copied elsewhere and the
        blocks erased; address translation is updated "as the original
        design of a Flash Translation Layer driver" (Section 3.1).  Returns
        the number of blocks in ``blocks`` actually recycled; free blocks
        need not be touched (they hold no cold data).
        """
        ...

    def swl_cost_probe(self) -> tuple[int, int]:
        """Current cumulative ``(block_erases, live_page_copies)``.

        Sampled around each forced recycle to attribute overhead to static
        wear leveling (the quantities behind paper Figures 6 and 7).
        """
        ...


class RequestClock:
    """Request counter and host clock a request-driven mechanism reads.

    Standalone stacks give every leveler its own clock; a
    :class:`~repro.array.DeviceArray` installs one *shared* instance
    across its shard levelers, because each of them observes every host
    request anyway — one ``requests += 1`` then replaces one store per
    shard on the per-request hot path, with identical counter values.
    """

    __slots__ = ("requests", "now")

    def __init__(self) -> None:
        self.requests = 0
        self.now = 0.0


class WearLeveler(ABC):
    """The driver boundary of every wear-leveling mechanism, stated once.

    :class:`SWLeveler` (the paper's design) and every challenger in
    :mod:`repro.core.alternatives` inherit this class, so the translation
    layers, the device array, the checkpoint machinery and the policy
    arena drive any mechanism through plain attributes of one type — the
    pluggability :class:`~repro.core.policies.LevelerSpec` builds on.

    The base owns the ``host``, the :class:`RequestClock`, nested
    :meth:`suspend`/:meth:`resume` replaying one deferred trigger through
    :meth:`_dispatch_trigger`, :meth:`on_request`, no-op notifications,
    the cost-attributed :meth:`_forced_recycle` and the snapshot envelope.
    A mechanism supplies ``kind``, ``label``, ``ram_bytes`` and a ``stats``
    dataclass (with ``swl_erases``/``swl_copies`` if it force-recycles),
    and overrides only the notifications it acts on.

    Two class-level capability flags steer the wiring:

    ``supports_coordination``
        ``True`` only for BET-carrying levelers (``leveler.bet``) that a
        :class:`~repro.array.coordinator.WearCoordinator` can read.
    ``intercepts_writes``
        ``True`` for mechanisms that sit *on* the host write path (the
        cache-based wear avoider); the backend then routes host I/O
        through ``host_write``/``host_read`` instead of calling the
        translation layer directly.
    """

    #: Registry name of the mechanism (``LevelerSpec.kind``).
    kind: str
    supports_coordination = False
    intercepts_writes = False
    #: ``True`` when :meth:`_request_tick` must run at every request edge.
    #: A flag, so the erase-driven default exits :meth:`on_request` on an
    #: attribute test; an array skips its shard loop when none is set.
    _request_driven = False
    #: Attributes a snapshot records as they are and :meth:`restore_state`
    #: requires to be equal (the knobs; ``kind`` where the image names it).
    _config_fields: tuple[str, ...] = ()

    def __init__(self, host: WearLevelingHost, stats: Any) -> None:
        self.host = host
        self.stats = stats
        #: Request/time counters; an array swaps in a shared instance.
        self.clock = RequestClock()
        self._in_procedure = False
        self._suspended = 0
        self._deferred_check = False

    @property
    @abstractmethod
    def label(self) -> str:
        """Mechanism label composed into backend names."""

    @property
    @abstractmethod
    def ram_bytes(self) -> int:
        """Controller RAM footprint of the mechanism's bookkeeping."""

    # ------------------------------------------------------------------
    # Host-facing notifications (no-ops unless the mechanism uses them)
    # ------------------------------------------------------------------
    def on_block_erased(self, block: int) -> None:
        """The Cleaner erased ``block`` (every erase, forced ones included)."""

    def on_block_retired(self, block: int) -> None:
        """``block`` left service permanently (grown bad / worn out)."""

    def attach_bus(self, bus: "BusLike | None") -> None:
        """Emit telemetry on ``bus``; mechanisms without events stay silent."""

    def persist(self, store: BetStore) -> None:
        """Save media-resident state; RAM-only mechanisms have none."""

    def restore(self, store: BetStore) -> bool:
        """Reload what :meth:`persist` saved; ``False`` when nothing was."""
        return False

    def on_request(self, now: float | None = None) -> None:
        """Advance the request/time counters; tick a request-driven mechanism.

        A :class:`~repro.array.DeviceArray` advances the (shared)
        :class:`RequestClock` once for all shard levelers and calls
        :meth:`_request_tick` directly — keep the two paths in step.
        """
        clock = self.clock
        clock.requests += 1
        if now is not None:
            clock.now = now
        if self._request_driven and not self._in_procedure:
            self._request_tick()

    def _request_tick(self) -> None:
        """A request-driven mechanism's check at a request edge."""

    # ------------------------------------------------------------------
    # Suspension: the host defers leveling while inside its own GC/merge
    # ------------------------------------------------------------------
    @property
    def in_procedure(self) -> bool:
        """``True`` while the mechanism is force-recycling blocks."""
        return self._in_procedure

    @property
    def suspended(self) -> bool:
        """``True`` while the host driver has procedure runs deferred."""
        return self._suspended > 0

    def suspend(self) -> None:
        """Defer procedure runs (the host is inside its own GC/merge).

        Erase bookkeeping continues; a trigger that fires meanwhile is
        remembered and replayed by :meth:`resume`.  Calls nest.
        """
        self._suspended += 1

    def resume(self) -> None:
        """Re-enable procedure runs and replay any deferred trigger."""
        if self._suspended <= 0:
            raise RuntimeError("resume() without a matching suspend()")
        self._suspended -= 1
        if self._suspended == 0 and self._deferred_check:
            self._deferred_check = False
            self._dispatch_trigger()

    def _trigger_fired(self) -> None:
        """Act on a fired trigger now, or at the outermost :meth:`resume`."""
        if self._suspended:
            self._note_deferred()
        else:
            self._dispatch_trigger()

    def _note_deferred(self) -> None:
        """Remember a trigger deferred by suspension."""
        self._deferred_check = True

    def _dispatch_trigger(self) -> None:
        """The mechanism's response to a fired (or replayed) trigger."""

    def _forced_recycle(self, blocks: range) -> int:
        """EraseBlockSet over ``blocks``, its cost charged to the mechanism.

        The erase and live-copy deltas around the call land in
        ``stats.swl_erases``/``stats.swl_copies`` (the quantities behind
        paper Figures 6 and 7).  Returns the blocks actually recycled.
        """
        host = self.host
        erases_before, copies_before = host.swl_cost_probe()
        recycled = host.recycle_block_range(blocks)
        erases_after, copies_after = host.swl_cost_probe()
        self.stats.swl_erases += erases_after - erases_before
        self.stats.swl_copies += copies_after - copies_before
        return recycled

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, Any]:
        """Freeze the leveler: knobs, deferred trigger, clock, counters.

        Snapshots are taken at request boundaries, where no procedure is
        in flight and no suspension is held, so only the deferred trigger
        survives; mechanism state comes from :meth:`_snapshot_extra`.
        """
        state = {name: getattr(self, name) for name in self._config_fields}
        state["deferred_check"] = self._deferred_check
        state["requests_seen"] = self.clock.requests
        state["now"] = self.clock.now
        state["stats"] = dataclasses.asdict(self.stats)
        state.update(self._snapshot_extra())
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot_state`; rejects config mismatches.

        An image of another mechanism lacks this one's knobs (or names
        another ``kind``), so it is refused like a changed knob.
        """
        for name in self._config_fields:
            if state.get(name) != getattr(self, name):
                raise ValueError(
                    f"leveler snapshot {name}={state.get(name)!r} does not "
                    f"match {getattr(self, name)!r}"
                )
        self._restore_extra(state)
        self._deferred_check = bool(state["deferred_check"])
        self.clock.requests = state["requests_seen"]
        self.clock.now = state["now"]
        # Copied, so a restored leveler never shares a list with the image.
        self.stats = dataclasses.replace(self.stats, **copy.deepcopy(state["stats"]))
        self._in_procedure = False
        self._suspended = 0

    def _snapshot_extra(self) -> dict[str, Any]:
        """Mechanism state beyond the envelope (JSON-friendly)."""
        return {}

    def _restore_extra(self, state: dict[str, Any]) -> None:
        """Validate, then restore, what :meth:`_snapshot_extra` froze."""


#: ``findex_history`` length bound.  When recording would grow past it,
#: every other retained entry is dropped and the recording stride doubles
#: — the same decimation idiom as the engine's ``WearSample`` timeline —
#: so the history holds at most this many entries over any horizon while
#: keeping a uniformly thinned view of the whole run.
MAX_FINDEX_HISTORY = 4096


@dataclass
class SWLStats:
    """Bookkeeping of everything the SW Leveler did."""

    procedure_runs: int = 0        #: SWL-Procedure invocations that did work
    procedure_checks: int = 0      #: times the trigger condition was evaluated
    forced_recycles: int = 0       #: EraseBlockSet calls that recycled something
    direct_marks: int = 0          #: free block sets flagged without an erase
    swl_erases: int = 0            #: block erases attributable to SWL
    swl_copies: int = 0            #: live-page copies attributable to SWL
    bet_resets: int = 0            #: completed resetting intervals
    #: Selected flag indices, decimated to ``MAX_FINDEX_HISTORY`` entries.
    findex_history: list[int] = field(default_factory=list)
    #: EraseBlockSet calls observed (recorded or thinned away).
    findex_seen: int = 0
    #: Record every ``findex_stride``-th selection; doubles on decimation.
    findex_stride: int = 1

    def record_findex(self, findex: int) -> None:
        """Append to ``findex_history`` under the decimation bound.

        Memory stays O(``MAX_FINDEX_HISTORY``) for arbitrarily long runs:
        at the cap, older entries thin first and later selections are
        recorded at the doubled stride, mirroring the timeline decimation
        in :class:`~repro.sim.engine.Simulator`.
        """
        if self.findex_seen % self.findex_stride == 0:
            self.findex_history.append(findex)
            if len(self.findex_history) >= MAX_FINDEX_HISTORY:
                del self.findex_history[1::2]
                self.findex_stride *= 2
        self.findex_seen += 1

    def as_dict(self) -> dict[str, int]:
        return {
            "procedure_runs": self.procedure_runs,
            "procedure_checks": self.procedure_checks,
            "forced_recycles": self.forced_recycles,
            "direct_marks": self.direct_marks,
            "swl_erases": self.swl_erases,
            "swl_copies": self.swl_copies,
            "bet_resets": self.bet_resets,
        }


class SWLeveler(WearLeveler):
    """Static wear leveler (SW Leveler) for a Flash Translation Layer.

    Erase-driven, as the paper's Cleaner drives it: every erase runs
    SWL-BETUpdate and then checks ``ecnt / fcnt >= T`` — at once, or at
    the host's outermost :meth:`resume` while it is suspended.  Host
    requests carry no leveling work.

    Parameters
    ----------
    num_blocks:
        Physical blocks managed (BET coverage).
    host:
        The translation-layer driver, via :class:`WearLevelingHost`.
    threshold:
        The unevenness-level threshold ``T``.  SWL-Procedure engages while
        ``ecnt / fcnt >= T`` (paper sweeps T over {100, 400, 700, 1000}).
    k:
        BET set-size exponent (paper sweeps k over {0, 1, 2, 3}).
    selection:
        Block-set selection policy; the paper's sequential cyclic scan by
        default.
    rng:
        Randomness source for the post-reset ``findex`` re-seed
        (Algorithm 1, step 6); seeded deterministically when omitted.
    """

    kind = "swl"
    #: The BET exposes per-set unevenness to an array-level
    #: :class:`~repro.array.coordinator.WearCoordinator`.
    supports_coordination = True
    #: The image names no ``kind``: its shape predates the registry and
    #: its digest is pinned (``tests/test_ckpt.py``).
    _config_fields = ("threshold",)

    def __init__(
        self,
        num_blocks: int,
        host: WearLevelingHost,
        *,
        threshold: float = 100.0,
        k: int = 0,
        selection: SelectionPolicy | None = None,
        rng: random.Random | None = None,
    ) -> None:
        check_knobs(threshold=threshold, k=k)
        super().__init__(host, SWLStats())
        self.threshold = threshold
        self.bet = BlockErasingTable(num_blocks, k)
        self.selection = selection or SequentialSelection()
        self.rng = rng or make_rng()
        #: Cyclic scan cursor of Algorithm 1 ("the index in the selection
        #: of a block set for static wear leveling").
        self.findex = 0
        #: Flag indices whose block sets contain at least one retired
        #: (grown-bad) block.  They are kept permanently set — re-marked
        #: after every BET reset and restore — so SWL-Procedure's zero-flag
        #: scan never selects a retired set for forced recycling.
        self._retired_flags: set[int] = set()
        #: Array-scale coordination hook.  ``None`` (standalone stacks)
        #: keeps the paper's behaviour: every fired trigger evaluates this
        #: leveler's own threshold.  A :class:`~repro.array.coordinator.
        #: WearCoordinator` installs itself here to arbitrate SWL-Procedure
        #: across channel shards instead.
        self.coordinator: "WearCoordinator | None" = None
        self._obs: "BusLike | None" = None
        #: ``ecnt`` when a trigger was first deferred by suspension; the
        #: gap to the eventual run is the SWL trigger latency in erases.
        self._deferred_at_ecnt: int | None = None

    def attach_bus(self, bus: "BusLike | None") -> None:
        """Emit ``SwlInvoke``/``BetReset`` telemetry on ``bus``."""
        self._obs = bus

    # ------------------------------------------------------------------
    # Host-facing notifications
    # ------------------------------------------------------------------
    def on_block_erased(self, block: int) -> None:
        """SWL-BETUpdate (Algorithm 2), then the ``ecnt / fcnt >= T`` check.

        The Cleaner invokes this on *every* block erase, including erases
        the leveler itself caused; re-entrant procedure runs are suppressed
        so forced recycles update the BET without recursing.  While the
        host is suspended the check is deferred to its :meth:`resume`.
        (Once per erase: ``_trigger_fired`` is spelled out here, not called.)
        """
        self.bet.record_erase(block)
        if self._in_procedure:
            return
        if self._suspended:
            self._note_deferred()
        else:
            self._dispatch_trigger()

    def _note_deferred(self) -> None:
        """Remember a deferred trigger, and the ``ecnt`` it first fired at."""
        self._deferred_check = True
        if self._deferred_at_ecnt is None:
            self._deferred_at_ecnt = self.bet.ecnt

    def _dispatch_trigger(self) -> None:
        """Route a fired trigger: locally, or via the array coordinator."""
        if self.coordinator is not None:
            self.coordinator.on_trigger(self)
        else:
            self.maybe_run()

    def on_block_retired(self, block: int) -> None:
        """A block left service permanently (grown bad / worn out).

        Its BET set is flagged now and re-flagged after every reset, so
        the zero-flag scan of SWL-Procedure never selects it again.  In
        one-to-many mode (k > 0) this also excludes the live blocks that
        share the set — the same resolution cost the paper accepts for
        hot data sharing a set with cold data (Section 3.2).
        """
        findex = self.bet.flag_index(block)
        if findex not in self._retired_flags:
            self._retired_flags.add(findex)
            leveler_log.info(
                "block %d retired; BET set %d permanently flagged", block, findex
            )
        if not self.bet.is_set(findex):
            self.bet.mark_handled(findex)

    @property
    def retired_flags(self) -> frozenset[int]:
        """Flag indices permanently excluded from selection."""
        return frozenset(self._retired_flags)

    @property
    def label(self) -> str:
        """Mechanism label for backend names, e.g. ``SWL+k=0+T=100``."""
        return f"SWL+k={self.bet.k}+T={int(self.threshold)}"

    @property
    def ram_bytes(self) -> int:
        """Controller RAM of the mechanism: the BET, one bit per set.

        The paper's Table 1 quantity — ``ceil(size(BET) / 8)`` bytes for
        ``ceil(num_blocks / 2^k)`` flags (``ecnt``/``fcnt``/``findex``
        are O(1) registers on every mechanism and excluded throughout).
        """
        return (self.bet.size + 7) // 8

    # ------------------------------------------------------------------
    # Algorithm 1 — SWL-Procedure
    # ------------------------------------------------------------------
    def maybe_run(self) -> bool:
        """Run SWL-Procedure if the unevenness level warrants it.

        Returns ``True`` when the procedure performed at least one forced
        recycle or a BET reset.
        """
        self.stats.procedure_checks += 1
        if self.bet.fcnt == 0:                       # Alg. 1, step 1
            self._deferred_at_ecnt = None
            return False
        if self.bet.unevenness() < self.threshold:
            # A deferred trigger that no longer warrants work resolves
            # here; the latency clock must not leak into a later run.
            self._deferred_at_ecnt = None
            return False
        return self.run_procedure()

    def run_procedure(self) -> bool:
        """SWL-Procedure (Algorithm 1), unconditionally entered.

        Levels block sets until the unevenness level drops below ``T`` or
        the BET fills and resets.  Returns ``True`` if anything was done.
        """
        if self.bet.fcnt == 0:                       # step 1
            # Every procedure exit must release the deferred-trigger
            # latency clock; leaving it armed here inflated the latency
            # reported by the next SwlInvoke event.
            self._deferred_at_ecnt = None
            return False
        self._in_procedure = True
        did_work = False
        entry_unevenness = self.bet.unevenness()
        entry_ecnt = self.bet.ecnt
        entry_fcnt = self.bet.fcnt
        entry_findex = self.findex
        latency = (entry_ecnt - self._deferred_at_ecnt
                   if self._deferred_at_ecnt is not None else 0)
        self._deferred_at_ecnt = None
        try:
            while self.bet.unevenness() >= self.threshold:      # step 2
                if self.bet.all_flags_set():                    # step 3
                    self._reset_interval()                      # steps 4-7
                    did_work = True
                    return did_work                             # step 8
                target = self.selection.select(self.bet, self.findex, self.rng)
                if target is None:
                    # Defensive: cannot happen while fcnt < size(BET).
                    self._reset_interval()
                    did_work = True
                    return did_work
                self.findex = target                            # steps 9-10
                self._erase_block_set(target)                   # step 11
                did_work = True
                self.findex = (target + 1) % self.bet.size      # step 12
        finally:
            self._in_procedure = False
            if did_work:
                self.stats.procedure_runs += 1
                if self._obs is not None and self._obs.mask & M_SWL_INVOKE:
                    self._obs.emit(SwlInvokeEvent(
                        entry_findex, entry_unevenness, entry_ecnt,
                        entry_fcnt, latency))
        return did_work

    def _reset_interval(self) -> None:
        """Steps 4-7 of Algorithm 1: reset counters, flags, and ``findex``.

        Retired block sets are immediately re-flagged: a new resetting
        interval never re-opens a grown-bad block for selection.
        """
        self.bet.reset()
        for findex in self._retired_flags:
            self.bet.mark_handled(findex)
        self.findex = below(self.rng, self.bet.size)
        self.stats.bet_resets = self.bet.resets
        leveler_log.debug(
            "BET reset #%d (findex -> %d, %d retired sets re-flagged)",
            self.bet.resets, self.findex, len(self._retired_flags),
        )
        if self._obs is not None and self._obs.mask & M_BET_RESET:
            self._obs.emit(BetResetEvent(self.bet.resets, self.findex))

    def _erase_block_set(self, findex: int) -> None:
        """Step 11: request garbage collection over the selected block set.

        If the host recycled nothing (the set was entirely free blocks)
        the flag is set directly so the scan makes progress — see
        DESIGN.md for the rationale of this deviation.
        """
        recycled = self._forced_recycle(self.bet.blocks_in_set(findex))
        self.stats.record_findex(findex)
        if recycled:
            self.stats.forced_recycles += 1
        if not self.bet.is_set(findex):
            self.bet.mark_handled(findex)
            self.stats.direct_marks += 1

    # ------------------------------------------------------------------
    # Persistence (Section 3.2 / 3.3 system parameters)
    # ------------------------------------------------------------------
    def persist(self, store: BetStore) -> None:
        """Save the BET (flags + ``ecnt`` + ``fcnt``) to a dual-buffer store."""
        store.save(self.bet)

    def restore(self, store: BetStore) -> bool:
        """Reload the newest valid BET image, keeping current ``k`` geometry.

        Returns ``True`` on success.  A stale image is acceptable
        (Section 3.3: the counters "could tolerate some errors"); an image
        for a different geometry is rejected.
        """
        loaded = store.load()
        if loaded is None:
            return False
        if loaded.num_blocks != self.bet.num_blocks or loaded.k != self.bet.k:
            return False
        loaded.resets = self.bet.resets
        self.bet = loaded
        # A restored image may predate the latest retirements; re-flag.
        for findex in self._retired_flags:
            if not self.bet.is_set(findex):
                self.bet.mark_handled(findex)
        return True

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def _snapshot_extra(self) -> dict[str, Any]:
        """BET image, cursor, RNG stream, selection policy, retirements.

        The BET rides as its own CRC-guarded image (:meth:`BlockErasingTable.
        to_bytes`), hex-encoded for the JSON payload; ``resets`` is carried
        separately because the image format predates the counter.
        """
        return {
            "bet": self.bet.to_bytes().hex(),
            "bet_resets": self.bet.resets,
            "findex": self.findex,
            "rng": rng_state_to_json(self.rng),
            "selection": self.selection.name,
            "retired_flags": sorted(self._retired_flags),
            "deferred_at_ecnt": self._deferred_at_ecnt,
        }

    def _restore_extra(self, state: dict[str, Any]) -> None:
        bet, _sequence = BlockErasingTable.from_bytes(bytes.fromhex(state["bet"]))
        if bet.num_blocks != self.bet.num_blocks or bet.k != self.bet.k:
            raise ValueError(
                f"leveler snapshot BET geometry ({bet.num_blocks} blocks, "
                f"k={bet.k}) does not match ({self.bet.num_blocks} blocks, "
                f"k={self.bet.k})"
            )
        bet.resets = state["bet_resets"]
        if state["selection"] != self.selection.name:
            raise ValueError(
                f"leveler snapshot selection policy {state['selection']!r} "
                f"does not match {self.selection.name!r}"
            )
        self.bet = bet
        self.findex = state["findex"]
        self.rng.setstate(rng_state_from_json(state["rng"]))
        self._retired_flags = set(state["retired_flags"])
        self._deferred_at_ecnt = state["deferred_at_ecnt"]

    @property
    def unevenness(self) -> float:
        """Current unevenness level ``ecnt / fcnt``."""
        return self.bet.unevenness()

    def __repr__(self) -> str:
        return (
            f"SWLeveler(T={self.threshold}, k={self.bet.k}, "
            f"unevenness={self.unevenness:.1f}, findex={self.findex})"
        )
