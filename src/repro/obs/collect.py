"""Metrics collector: folds the event stream into per-shard registries.

The collector is an ordinary bus subscriber.  It keeps **one registry per
shard** and produces the global view by merging their snapshots — the
same composition discipline as ``DeviceArray`` merging per-shard
``EraseDistribution``s — so array telemetry is exact by construction
rather than approximated by sampling the merged device.

Metric naming follows Prometheus conventions (``*_total`` counters,
base-unit gauge/histogram names) under a single ``repro_`` prefix.
"""

from __future__ import annotations

from typing import Callable, Mapping, Protocol

from repro.obs.bus import ALL_EVENTS, HOT_KINDS, K_OBJ, BatchOp
from repro.obs.events import (
    BetReset,
    Event,
    FaultInjected,
    GcEnd,
    GcScan,
    GcStart,
    PowerLoss,
    QueueDepth,
    Recovery,
    SwlInvoke,
)
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot

#: SWL trigger latency buckets, in block erases between trigger and run.
LATENCY_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 100.0)


class _OpCountersLike(Protocol):
    """Cumulative per-device operation totals (``NandFlash.counters``)."""

    reads: int
    programs: int
    erases: int


class HotCounterSource(Protocol):
    """A device whose hot-kind facts are readable from state.

    ``NandFlash`` satisfies this structurally; anything exposing the
    same two members can back a pulled shard.
    """

    counters: _OpCountersLike

    def max_erase_count(self) -> int: ...


class MetricsCollector:
    """Subscribe to a bus and aggregate events into mergeable metrics.

    The cold kinds (GC, SWL, fault, queue events) fold from the bus's
    batches, in stream order.  The hot kinds (read, program, erase) never
    do: their totals and the erase peak are facts the device keeps, so
    :meth:`pull_hot_counters` reads them from the registered hot sources
    at flush time, and hot ops another subscriber keeps flowing are
    skipped — each operation is counted exactly once, from state.

    The collector never reads timestamps, which it advertises with
    ``needs_timestamps = False`` so a bus whose only subscriber is a
    collector skips the clock call entirely.
    """

    #: Batch consumers ignore record timestamps (lets the bus skip its clock).
    needs_timestamps = False
    #: Everything but the hot kinds, so the per-operation emit sites stay
    #: silent unless a trace exporter wants them.
    interest_mask = ALL_EVENTS & ~HOT_KINDS

    def __init__(self) -> None:
        #: Last-seen cumulative device totals per shard, so each pull
        #: applies only the delta since the previous one.
        self._pull_baselines: dict[int, tuple[int, int, int]] = {}
        self._registries: dict[int, MetricsRegistry] = {}
        self._handlers: dict[type[Event], Callable[[MetricsRegistry, Event],
                                                   None]] = {
            GcStart: self._on_gc_start,
            GcEnd: self._on_gc_end,
            GcScan: self._on_gc_scan,
            SwlInvoke: self._on_swl_invoke,
            BetReset: self._on_bet_reset,
            FaultInjected: self._on_fault,
            Recovery: self._on_recovery,
            PowerLoss: self._on_power_loss,
            QueueDepth: self._on_queue_depth,
        }

    @property
    def shards(self) -> tuple[int, ...]:
        """Shards seen so far, ascending."""
        return tuple(sorted(self._registries))

    def registry(self, shard: int) -> MetricsRegistry:
        """The (created-on-demand) registry for ``shard``."""
        registry = self._registries.get(shard)
        if registry is None:
            registry = self._registries[shard] = MetricsRegistry()
        return registry

    def consume_batch(self, batch: list[BatchOp]) -> None:
        """Fold the cold events of a batch, in stream order."""
        handlers = self._handlers
        for op in batch:
            if op[0] != K_OBJ:
                continue  # flat hot op: its total is pulled from state
            event = op[3]
            handler = handlers.get(type(event))
            if handler is not None:
                handler(self.registry(op[2]), event)

    # -- pulled hot counters -----------------------------------------------

    def pull_hot_counters(
        self, sources: Mapping[int, HotCounterSource]
    ) -> None:
        """Sync hot-kind metrics from cumulative device counters.

        Applies the delta since the previous pull, so repeated pulls
        (periodic snapshots plus the final flush) never double-count.  A
        device whose counters moved backwards (a checkpoint restore
        rewound it) re-baselines without applying a negative delta: the
        rewound operations never happened in the restored timeline.
        """
        for shard, source in sources.items():
            counters = source.counters
            reads, programs, erases = (
                counters.reads, counters.programs, counters.erases,
            )
            base = self._pull_baselines.get(shard, (0, 0, 0))
            self._pull_baselines[shard] = (reads, programs, erases)
            registry = self.registry(shard)
            delta = reads - base[0]
            if delta > 0:
                registry.counter("repro_flash_reads_total",
                                 "Page reads completed").inc(delta)
            delta = programs - base[1]
            if delta > 0:
                registry.counter("repro_flash_programs_total",
                                 "Page programs completed").inc(delta)
            delta = erases - base[2]
            if delta > 0:
                registry.counter("repro_flash_erases_total",
                                 "Block erases completed").inc(delta)
            peak = registry.gauge(
                "repro_flash_max_block_erases",
                "Highest per-block erase count observed", agg="max",
            )
            maximum = source.max_erase_count()
            if maximum > peak.value:
                peak.set(maximum)

    # -- cold-event folds --------------------------------------------------

    def _on_gc_start(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, GcStart)
        registry.counter("repro_gc_passes_total",
                         "Garbage-collection passes started").inc()
        reason = event.reason.replace("-", "_")
        registry.counter(f"repro_gc_passes_{reason}_total",
                         f"GC passes attributed to {event.reason}").inc()

    def _on_gc_end(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, GcEnd)
        copies = registry.counter("repro_gc_copied_pages_total",
                                  "Live pages copied by GC")
        erases = registry.counter("repro_gc_erases_total",
                                  "Block erases performed by GC")
        copies.inc(event.copies)
        erases.inc(event.erases)
        if erases.value:
            registry.gauge(
                "repro_gc_copy_amplification",
                "Cumulative live-page copies per GC erase", agg="max",
            ).set(round(copies.value / erases.value, 6))

    def _on_gc_scan(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, GcScan)
        registry.counter("repro_gc_scans_total",
                         "Victim-selection scans").inc()
        registry.counter("repro_gc_scan_probes_total",
                         "Candidates examined during victim scans"
                         ).inc(event.probes)

    def _on_swl_invoke(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, SwlInvoke)
        registry.counter("repro_swl_invocations_total",
                         "SWL-Procedure runs that moved data").inc()
        registry.gauge("repro_swl_unevenness",
                       "ecnt/fcnt at SWL-Procedure entry",
                       agg="max").set(round(event.unevenness, 6))
        registry.histogram(
            "repro_swl_trigger_latency_erases",
            "Erases between SWL trigger and procedure run",
            buckets=LATENCY_BUCKETS,
        ).observe(event.latency_erases)

    def _on_bet_reset(self, registry: MetricsRegistry, event: Event) -> None:
        registry.counter("repro_bet_resets_total",
                         "BET resetting intervals completed").inc()

    def _on_fault(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, FaultInjected)
        registry.counter("repro_faults_injected_total",
                         "Faults delivered by the injector").inc()
        registry.counter(f"repro_faults_{event.fault}_total",
                         f"Injected {event.fault} faults").inc()

    def _on_recovery(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, Recovery)
        registry.counter("repro_recovery_actions_total",
                         "Driver fault-recovery actions").inc()
        registry.counter(f"repro_recovery_{event.action}_total",
                         f"Recovery actions of kind {event.action}").inc()

    def _on_power_loss(self, registry: MetricsRegistry, event: Event) -> None:
        registry.counter("repro_power_loss_total",
                         "Scheduled power losses delivered").inc()

    def _on_queue_depth(self, registry: MetricsRegistry, event: Event) -> None:
        assert isinstance(event, QueueDepth)
        # Peak occupancy per channel; the global merge takes the worst
        # channel, which is the array's backpressure ceiling.
        peak = registry.gauge("repro_service_queue_depth",
                              "Peak channel queue occupancy sampled",
                              agg="max")
        if event.depth > peak.value:
            peak.set(event.depth)
        # Cumulative per-channel stall count rides as a summed gauge: the
        # event carries the running total, so `set` (not `inc`) keeps
        # repeated samples from double-counting.
        registry.gauge("repro_service_queue_stalls",
                       "Arrivals that waited on queue backpressure",
                       agg="sum").set(event.stalls)

    # -- snapshots ---------------------------------------------------------

    def shard_snapshot(self, shard: int) -> MetricsSnapshot:
        """Snapshot of one shard's registry."""
        return self.registry(shard).snapshot()

    def snapshot(self) -> MetricsSnapshot:
        """Global snapshot: exact merge of every shard's snapshot."""
        merged = MetricsSnapshot({}, {}, {})
        for shard in self.shards:
            merged = merged.merge(self._registries[shard].snapshot())
        return merged
