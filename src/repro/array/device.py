"""Multi-channel device arrays: N independent shards behind one backend.

A :class:`DeviceArray` owns N channel shards — each a complete
chip + MTD + FTL + SW Leveler stack built by the existing factory — and
implements the same :class:`~repro.ftl.factory.StorageBackend` protocol
as a single :class:`~repro.ftl.factory.StorageStack`, so the simulation
engine drives either without knowing the topology.

Three pieces compose it:

* a :class:`~repro.array.striping.StripingPolicy` routes every array
  logical page to a ``(shard, local page)`` pair;
* the **batched dispatcher** (:meth:`DeviceArray.write_pages`) groups a
  request's page span per shard *before* touching any stack, so each
  shard sees one contiguous batch per request instead of interleaved
  single-page calls — the request batching that keeps per-shard GC
  decisions coherent;
* an optional :class:`~repro.array.coordinator.WearCoordinator`
  arbitrates SWL-Procedure across shards (per-shard-T or global-T).

Shards are fully independent below the dispatcher: separate chips,
separate free pools, separate BETs, separate fault injectors.  All
aggregate statistics are sums over shards; per-shard breakdowns stay
available for reporting.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Sequence

from repro.array.coordinator import WearCoordinator
from repro.array.striping import StripingPolicy, make_striping
from repro.core.policies import LevelerSpec
from repro.core.leveler import RequestClock
from repro.flash.chip import FirstFailure
from repro.flash.errors import FlashError
from repro.ftl.base import DEFAULT_OP_RATIO
from repro.ftl.factory import StorageStack, build_stack
from repro.obs.heatmap import WearHeatmap
from repro.util.rng import make_rng, spawn_rng

if TYPE_CHECKING:
    from repro.fault.plan import FaultPlan
    from repro.flash.geometry import FlashGeometry
    from repro.obs.bus import BusLike
    # Annotation-only: a runtime import would initialize repro.sim, whose
    # engine reaches back into repro.ftl.factory (imported above).
    from repro.sim.metrics import EraseDistribution


class DeviceArray:
    """N channel shards behind a striped, batched dispatcher.

    Parameters
    ----------
    shards:
        The per-channel stacks, all over the same geometry and exporting
        the same logical page count.
    striping:
        Address routing policy; its shard count and per-shard page count
        must match ``shards``.
    coordinator:
        Cross-shard SW-Leveler arbitration; ``None`` when the shards run
        without static wear leveling.
    """

    def __init__(
        self,
        shards: Sequence[StorageStack],
        striping: StripingPolicy,
        *,
        coordinator: WearCoordinator | None = None,
    ) -> None:
        if not shards:
            raise ValueError("a device array needs at least one shard")
        if striping.num_shards != len(shards):
            raise ValueError(
                f"striping routes {striping.num_shards} shards but "
                f"{len(shards)} were provided"
            )
        pages = {shard.num_logical_pages for shard in shards}
        if len(pages) != 1:
            raise ValueError(f"shards export unequal logical spaces: {pages}")
        if striping.pages_per_shard != pages.pop():
            raise ValueError(
                f"striping assumes {striping.pages_per_shard} pages per "
                f"shard, shards export {shards[0].num_logical_pages}"
            )
        self.shards = list(shards)
        self.striping = striping
        self.coordinator = coordinator
        # Dispatcher hot-path state: reusable per-shard batch buffers
        # (cleared after every request, so no allocation per dispatch)
        # and precomputed component lists that save a property chain per
        # request (`shard.first_failure` / `shard.on_request` are hops
        # through dataclass properties).  Wiring identity is stable —
        # checkpoint restore overwrites component *state* in place — so
        # these lists never go stale.
        self._buffers: list[list[int]] = [[] for _ in self.shards]
        self._flashes = [shard.flash for shard in self.shards]
        # Fused dispatchers (repro.array.striping): the striping policy
        # compiles its routing arithmetic around the shards' own batch
        # entry points once, so replaying a request is a single closure
        # call that hands each touched shard its local range.  Every
        # route to a shard goes through its ``write_pages``/``read_pages``,
        # which knows whether the driver takes spans or a write
        # interceptor sits in front.  Bound as *instance* attributes the
        # closures shadow the generic methods below, which remain the
        # fallback for batch shapes the closures delegate back
        # (multi-page non-range sequences, e.g. lba-modulo wraps).
        self._write_ops = [shard.write_pages for shard in self.shards]
        self._read_ops = [shard.read_pages for shard in self.shards]
        self.write_pages = striping.compile_pages_dispatch(  # type: ignore[method-assign]
            self._write_ops, self.write_pages
        )
        self.read_pages = striping.compile_pages_dispatch(  # type: ignore[method-assign]
            self._read_ops, self.read_pages
        )
        # The engine polls first_failure once per request, so it is a
        # plain data attribute: each chip's one-shot failure sink
        # re-derives it (at most N times per run) and the poll costs an
        # attribute load.  `_scan_first_failure` keeps the original
        # property semantics — first failing shard in index order, which
        # is deterministic because shards advance in lock-step with the
        # request stream.  Checkpoint restore re-derives it from the
        # restored chip state.
        self.first_failure: FirstFailure | None = self._scan_first_failure()
        for flash in self._flashes:
            flash.failure_sink = self._note_first_failure
        self._levelers = [
            shard.leveler for shard in self.shards
            if shard.leveler is not None
        ]
        # Every shard leveler observes every host request, so their
        # request clocks always agree — share one instance and advance
        # it once per request instead of once per shard.  Safe at build
        # time: the clocks are all zero, and checkpoint restore writes
        # the (identical) per-leveler counters into the shared instance.
        self._req_clock = RequestClock()
        for leveler in self._levelers:
            leveler.clock = self._req_clock
        # Only a request-driven mechanism (the SoftWear scrubber) acts at
        # request edges; the paper's SW Leveler checks its threshold on
        # erases, so with it on every shard a request carries no
        # per-leveler work at all — skip the shard loop outright.  Safe
        # to precompute: the flag is a class attribute of the mechanism.
        self._any_request_driven = any(
            leveler._request_driven for leveler in self._levelers
        )
        # Lazy merged-distribution cache keyed on per-shard wear moments
        # (total, sum_sq, maximum, minimum) — exactly the quantities a
        # merged EraseDistribution is derived from, so a key hit is
        # guaranteed to reproduce the cached value.  Any erase on any
        # shard changes that shard's total and invalidates the key.
        self._dist_cache: tuple[tuple[tuple[int, int, int, int], ...],
                                "EraseDistribution"] | None = None
        self._shard_dists_cache: tuple[
            tuple[tuple[int, int, int, int], ...], list["EraseDistribution"]
        ] | None = None

    def _scan_first_failure(self) -> FirstFailure | None:
        for flash in self._flashes:
            failure = flash.first_failure
            if failure is not None:
                return failure
        return None

    def _note_first_failure(self) -> None:
        self.first_failure = self._scan_first_failure()

    # ------------------------------------------------------------------
    # StorageBackend protocol
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        if self.coordinator is not None:
            scope = self.coordinator.scope
        elif self._levelers:
            scope = "independent"  # challengers level per shard, unarbitrated
        else:
            scope = "no-swl"
        return (
            f"{self.shards[0].name}x{len(self.shards)}"
            f"[{self.striping.name},{scope}]"
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def sectors_per_page(self) -> int:
        return self.shards[0].sectors_per_page

    @property
    def num_logical_pages(self) -> int:
        return self.striping.total_pages

    def write_pages(self, lpns: Sequence[int]) -> int:
        """Generic batched dispatcher: route, group per shard, apply.

        The striping policy's fused dispatcher shadows this method with
        an instance-bound closure (see ``__init__``); it only serves the
        closure's fallback shapes.
        """
        return self._dispatch(lpns, self._write_ops)

    def read_pages(self, lpns: Sequence[int]) -> int:
        return self._dispatch(lpns, self._read_ops)

    def _dispatch(
        self, lpns: Sequence[int], span_ops: list[Callable[[Sequence[int]], int]]
    ) -> int:
        done = 0
        buffers = self._buffers
        try:
            self.striping.route_batch(lpns, buffers)
            for index, batch in enumerate(buffers):
                if batch:
                    done += span_ops[index](batch)
        except FlashError as exc:
            exc.pages_done += done
            raise
        finally:
            for batch in buffers:
                if batch:
                    batch.clear()
        return done

    def on_request(self, now: float) -> None:
        # WearLeveler.on_request inlined across shards: the shared request
        # clock advances once for all of them, and with an erase-driven
        # mechanism (the paper's, the common case) the per-leveler work is
        # a flag test — a call frame per shard per request would cost
        # more than the work itself.
        clock = self._req_clock
        clock.requests += 1
        clock.now = now
        if self._any_request_driven:
            for leveler in self._levelers:
                if leveler._request_driven and not leveler._in_procedure:
                    leveler._request_tick()

    @property
    def erase_counts(self) -> list[int]:
        """Per-block erase counts of every shard, concatenated."""
        counts: list[int] = []
        for shard in self.shards:
            counts.extend(shard.erase_counts)
        return counts

    def _wear_key(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per-shard wear moments; changes whenever any block is erased."""
        return tuple(
            (wear.total, wear.sum_sq, wear.maximum, wear.minimum)
            for wear in (flash.wear for flash in self._flashes)
        )

    def erase_distribution(self) -> EraseDistribution:
        """Array-wide wear summary: exact integer merge of shard moments.

        Each shard snapshot is O(1) from its accumulator and the merge
        sums exact integer moments, so the result equals
        ``EraseDistribution.from_counts`` over the concatenated counts
        bit for bit at O(num_shards) cost.  The merged value is cached
        against the per-shard moments (every erase changes them), so
        repeated stat reads between erases — the engine samples wear far
        more often than blocks wear — cost a tuple compare.
        """
        from repro.sim.metrics import EraseDistribution

        key = self._wear_key()
        cached = self._dist_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        merged = EraseDistribution.merge(
            [shard.erase_distribution() for shard in self.shards]
        )
        self._dist_cache = (key, merged)
        return merged

    def shard_erase_distributions(self) -> list[EraseDistribution]:
        key = self._wear_key()
        cached = self._shard_dists_cache
        if cached is not None and cached[0] == key:
            return list(cached[1])
        dists = [shard.erase_distribution() for shard in self.shards]
        self._shard_dists_cache = (key, dists)
        return list(dists)

    def wear_heatmap(self, ts: float, bins: int = 64) -> WearHeatmap:
        """Array-wide heatmap over the concatenated block space.

        The global bin width comes from the total block count.  When it
        divides the (uniform) shard size, bin boundaries never straddle
        shards and the per-shard incremental bin sums concatenate into
        the global grid at O(bins) cost; otherwise fall back to the
        O(num_blocks) scan, which is always correct.
        """
        shard_blocks = len(self.shards[0].erase_counts)
        num_blocks = shard_blocks * len(self.shards)
        width = max(1, -(-num_blocks // bins))
        if shard_blocks % width:
            return WearHeatmap.from_counts(ts, self.erase_counts, bins)
        sums: list[int] = []
        for shard in self.shards:
            wear = shard.flash.wear
            wear.ensure_bins(width, shard.flash.erase_counts)
            sums.extend(wear.bin_sums)
        accumulators = [shard.flash.wear for shard in self.shards]
        return WearHeatmap.from_bin_sums(
            ts,
            num_blocks=num_blocks,
            bin_width=width,
            bin_sums=sums,
            min_count=min(acc.minimum for acc in accumulators),
            max_count=max(acc.maximum for acc in accumulators),
            total_erases=sum(acc.total for acc in accumulators),
        )

    def total_erases(self) -> int:
        return sum(shard.total_erases() for shard in self.shards)

    def total_programs(self) -> int:
        return sum(shard.total_programs() for shard in self.shards)

    @property
    def busy_time(self) -> float:
        return sum(shard.busy_time for shard in self.shards)

    def shard_busy_times(self) -> list[float]:
        """Accumulated busy time per channel shard, in shard order.

        Each shard's MTD accumulates its own busy time, so diffing this
        vector around a dispatched batch tells the service engine exactly
        which channels worked and for how long — the per-shard queue
        occupancy signal that lets channels serve concurrently on the
        virtual clock while the striped mutation order stays
        deterministic.
        """
        return [shard.mtd.busy_time for shard in self.shards]

    def _merged(self, dicts: list[dict[str, int]]) -> dict[str, int]:
        merged: dict[str, int] = {}
        for stats in dicts:
            for key, value in stats.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def layer_stats(self) -> dict[str, int]:
        return self._merged([shard.layer_stats() for shard in self.shards])

    def swl_stats(self) -> dict[str, int]:
        merged = self._merged([shard.swl_stats() for shard in self.shards])
        if self.coordinator is not None and merged:
            for key, value in self.coordinator.stats.as_dict().items():
                merged[f"coord_{key}"] = value
        return merged

    def fault_stats(self) -> dict[str, int]:
        return self._merged([shard.fault_stats() for shard in self.shards])

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Per-shard stack snapshots plus the striping/coordinator identity."""
        return {
            "num_shards": len(self.shards),
            "striping": self.striping.name,
            "shards": [shard.snapshot_state() for shard in self.shards],
            "coordinator": (
                self.coordinator.snapshot_state()
                if self.coordinator is not None else None
            ),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Overwrite every shard in place from :meth:`snapshot_state`."""
        if state["num_shards"] != len(self.shards):
            raise ValueError(
                f"array snapshot holds {state['num_shards']} shards, "
                f"array has {len(self.shards)}"
            )
        if state["striping"] != self.striping.name:
            raise ValueError(
                f"array snapshot striping {state['striping']!r} does not "
                f"match {self.striping.name!r}"
            )
        coordinator_state = state["coordinator"]
        if (coordinator_state is None) != (self.coordinator is None):
            raise ValueError(
                "snapshot and array disagree on the presence of a coordinator"
            )
        for shard, shard_state in zip(self.shards, state["shards"]):  # type: ignore[arg-type]
            shard.restore_state(shard_state)
        self.first_failure = self._scan_first_failure()
        if self.coordinator is not None:
            self.coordinator.restore_state(coordinator_state)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return (
            f"DeviceArray(shards={len(self.shards)}, "
            f"striping={self.striping.name!r}, "
            f"scope={self.coordinator.scope if self.coordinator else None!r}, "
            f"logical_pages={self.num_logical_pages})"
        )


def build_array(
    geometry: "FlashGeometry",
    driver: str = "ftl",
    swl: LevelerSpec | None = None,
    *,
    channels: int,
    striping: str = "page",
    swl_scope: str = "per-shard",
    op_ratio: float = DEFAULT_OP_RATIO,
    alloc_policy: str = "lifo",
    rng: random.Random | None = None,
    fault_plan: "FaultPlan | None" = None,
    bus: "BusLike | None" = None,
) -> DeviceArray:
    """Assemble a :class:`DeviceArray` of ``channels`` identical shards.

    Every shard is a full stack over its own copy of ``geometry`` (one
    chip per channel, the physical layout of real multi-channel parts).
    Shard levelers draw from decorrelated child streams of ``rng``
    (``shard0``, ``shard1``, ...), and ``fault_plan`` — when given —
    yields one :class:`~repro.fault.injector.FaultInjector` per shard
    with a per-shard derived seed, so no two channels replay the same
    fault sequence.  ``bus`` telemetry is fanned out as shard-tagged
    views: every shard emits on the same bus under its own shard id and
    its own busy-time clock, so merged metrics compose exactly.
    """
    if channels <= 0:
        raise ValueError(f"channels must be positive, got {channels}")
    base = rng or make_rng()
    shards = []
    for index in range(channels):
        injector = None
        if fault_plan is not None:
            from repro.fault.injector import FaultInjector

            injector = FaultInjector(fault_plan.for_shard(index))
        # Each shard emits on a shard-tagged view of the bus; build_stack
        # wires the view's clock to that shard's own mtd.busy_time.
        shards.append(
            build_stack(
                geometry,
                driver,
                swl,
                op_ratio=op_ratio,
                alloc_policy=alloc_policy,
                rng=spawn_rng(base, f"shard{index}"),
                injector=injector,
                bus=bus.for_shard(index) if bus is not None else None,
            )
        )
    coordinator = None
    if swl is not None and swl.enabled:
        levelers = [shard.leveler for shard in shards]
        assert all(leveler is not None for leveler in levelers)
        if all(leveler.supports_coordination for leveler in levelers):
            coordinator = WearCoordinator(swl.threshold, scope=swl_scope)
            for leveler in levelers:
                coordinator.attach(leveler)
        elif swl_scope == "global":
            # The coordinator arbitrates by reading shard BETs; a
            # challenger without one cannot honor a global threshold.
            raise ValueError(
                f"swl_scope='global' requires a coordinating (BET-based) "
                f"leveler; {levelers[0].label!r} levels each shard "
                f"independently"
            )
    policy = make_striping(
        striping, channels, shards[0].layer.num_logical_pages
    )
    return DeviceArray(shards, policy, coordinator=coordinator)
