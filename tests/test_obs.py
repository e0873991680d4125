"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Covers the event bus, the metrics registry and its exact cross-shard
merging, wear heatmaps, the exporters, the chip/driver/leveler
instrumentation, and — most importantly — the *off* path: a stack built
without a bus must emit nothing and allocate no event objects, and a
telemetry-enabled run must produce a result identical to a disabled one
(minus the telemetry-only keys).
"""

from __future__ import annotations

import json
import logging
import random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.ftl.base as ftl_base_module
import repro.sim.core as sim_core
import repro.obs.bus as bus_module
from repro.core.config import SWLConfig
from repro.obs.bus import (
    ALL_EVENTS,
    HOT_KINDS,
    K_ERASE,
    K_OBJ,
    K_PROGRAM,
    K_READ,
    M_ERASE,
    M_PROGRAM,
    M_READ,
)
from repro.flash import MLC2_TINY, MtdDevice, NandFlash
from repro.ftl.factory import build_stack
from repro.obs import (
    ChromeTraceExporter,
    EventBus,
    JsonlTraceExporter,
    LogExporter,
    MetricsCollector,
    MetricsRegistry,
    Telemetry,
    WearHeatmap,
    render_prometheus,
)
from repro.obs.events import (
    BetReset,
    Erase,
    GcEnd,
    GcStart,
    Program,
    Read,
    SwlInvoke,
)
from repro.sim.engine import Simulator
from repro.sim.experiment import (
    ExperimentSpec,
    run_fixed_horizon,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.generator import MobilePCWorkload


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_emit_delivers_timestamped_records(self):
        bus = EventBus(clock=lambda: 42.5)
        records = []
        bus.subscribe(records.append)
        bus.emit(Erase(block=3, count=7))
        assert records == []  # delivery happens at flush, not at emit
        bus.flush()
        (record,) = records
        assert record.ts == 42.5
        assert record.shard == 0
        assert record.event.kind == "erase"
        assert record.event.payload() == {"block": 3, "count": 7}

    def test_no_clock_means_time_zero(self):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        bus.emit(Read(block=0, page=0))
        bus.flush()
        assert records[0].ts == 0.0

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        bus.unsubscribe(records.append)
        bus.unsubscribe(records.append)  # absent: no-op
        bus.emit(Read(block=0, page=0))
        bus.flush()
        assert records == []

    def test_subscriber_may_unsubscribe_mid_dispatch(self):
        bus = EventBus()
        seen = []

        def second(record):
            seen.append("second")

        def first(record):
            seen.append("first")
            bus.unsubscribe(second)

        bus.subscribe(first)
        bus.subscribe(second)
        bus.emit(Read(block=0, page=0))
        bus.flush()
        # The in-flight delivery keeps its snapshot...
        assert seen == ["first", "second"]
        bus.emit(Read(block=0, page=0))
        bus.flush()
        # ...and the next one observes the removal.
        assert seen == ["first", "second", "first"]

    def test_shard_views_share_subscribers(self):
        bus = EventBus(clock=lambda: 1.0)
        records = []
        bus.subscribe(records.append)
        shard1 = bus.for_shard(1, clock=lambda: 9.0)
        shard1.emit(Erase(block=0, count=1))
        bus.emit(Erase(block=0, count=2))
        shard1.flush()
        assert [(r.shard, r.ts) for r in records] == [(1, 9.0), (0, 1.0)]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_merge_adds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        b.counter("c").inc(4)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counters["c"].value == 7

    @pytest.mark.parametrize(
        "agg,expected", [("sum", 7.0), ("max", 4.0), ("min", 3.0)]
    )
    def test_gauge_merge_applies_declared_aggregation(self, agg, expected):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g", agg=agg).set(3.0)
        b.gauge("g", agg=agg).set(4.0)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.gauges["g"].value == expected

    def test_gauge_merge_rejects_conflicting_aggregations(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g", agg="max").set(1.0)
        b.gauge("g", agg="sum").set(1.0)
        with pytest.raises(ValueError, match="conflicting"):
            a.snapshot().merge(b.snapshot())

    def test_histogram_observe_and_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (0.5, 3.0, 100.0):
            a.histogram("h", buckets=(1.0, 5.0)).observe(value)
        b.histogram("h", buckets=(1.0, 5.0)).observe(4.0)
        merged = a.snapshot().merge(b.snapshot())
        sample = merged.histograms["h"]
        assert sample.counts == (1, 2, 1)  # <=1, <=5, +Inf
        assert sample.count == 4
        assert sample.sum == pytest.approx(107.5)

    def test_histogram_merge_rejects_differing_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(1)
        b.histogram("h", buckets=(1.0, 3.0)).observe(1)
        with pytest.raises(ValueError, match="differing buckets"):
            a.snapshot().merge(b.snapshot())
        with pytest.raises(ValueError, match="differing buckets"):
            a.histogram("h", buckets=(1.0, 2.0)).merge(
                b.histogram("h", buckets=(1.0, 3.0)))

    def test_registry_rejects_a_histogram_under_other_buckets(self):
        # Handing back the existing (1, 2) histogram for a (1, 5) request
        # would bin the caller's observations against bounds it never
        # asked for.
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        with pytest.raises(ValueError, match="other buckets"):
            registry.histogram("h", buckets=(1.0, 5.0))
        with pytest.raises(ValueError, match="other buckets"):
            registry.histogram("h", buckets=(1.0, 2.0, 5.0))
        assert registry.histogram("h", buckets=(1, 2)).count == 1

    def test_one_sided_metrics_pass_through(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("only_a").inc(1)
        b.gauge("only_b").set(2.0)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.counters["only_a"].value == 1
        assert merged.gauges["only_b"].value == 2.0

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", help="a counter").inc(5)
        registry.gauge("repro_g").set(1.5)
        hist = registry.histogram("repro_h", buckets=(1.0, 5.0))
        hist.observe(0.5)
        hist.observe(2.0)
        text = render_prometheus(registry.snapshot())
        assert "# HELP repro_c_total a counter" in text
        assert "# TYPE repro_c_total counter" in text
        assert "repro_c_total 5" in text
        assert "repro_g 1.5" in text
        # Bucket counts are cumulative in the exposition format.
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="5"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 2' in text
        assert "repro_h_sum 2.5" in text
        assert "repro_h_count 2" in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# Heatmaps
# ----------------------------------------------------------------------
class TestWearHeatmap:
    def test_binning(self):
        counts = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        heatmap = WearHeatmap.from_counts(3.0, counts, bins=4)
        assert heatmap.ts == 3.0
        assert heatmap.num_blocks == 10
        assert heatmap.bin_width == 3
        assert heatmap.cells == (2.0, 8.0, 14.0, 18.0)
        assert heatmap.min_count == 0
        assert heatmap.max_count == 18
        assert heatmap.total_erases == sum(counts)

    def test_more_bins_than_blocks(self):
        heatmap = WearHeatmap.from_counts(0.0, [5, 7], bins=64)
        assert heatmap.bin_width == 1
        assert heatmap.cells == (5.0, 7.0)

    def test_empty_counts(self):
        heatmap = WearHeatmap.from_counts(0.0, [], bins=8)
        assert heatmap.cells == ()
        assert heatmap.total_erases == 0

    def test_as_dict_is_json_friendly(self):
        heatmap = WearHeatmap.from_counts(1.0, [1, 2, 3], bins=2)
        assert json.loads(json.dumps(heatmap.as_dict()))


# ----------------------------------------------------------------------
# Collector
# ----------------------------------------------------------------------
class TestMetricsCollector:
    def test_event_to_metric_mapping(self):
        bus = EventBus()
        collector = MetricsCollector()
        bus.subscribe(collector)
        bus.emit(GcStart(reason="free-space", victim=0))
        bus.emit(GcEnd(reason="free-space", victim=0, copies=4, erases=1))
        bus.flush()
        # Hot totals are facts of the device, read from it — not events.
        collector.pull_hot_counters({0: _FakeHotSource(1, 1, erases=2, max_erases=3)})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_erases_total"].value == 2
        assert snapshot.counters["repro_flash_programs_total"].value == 1
        assert snapshot.counters["repro_flash_reads_total"].value == 1
        assert snapshot.counters["repro_gc_passes_total"].value == 1
        assert snapshot.counters["repro_gc_copied_pages_total"].value == 4
        assert snapshot.gauges["repro_flash_max_block_erases"].value == 3

    def test_per_shard_registries_merge_to_global(self):
        bus = EventBus()
        collector = MetricsCollector()
        bus.subscribe(collector)
        for shard, unevenness in ((0, 2.0), (1, 5.0)):
            bus.for_shard(shard).emit(SwlInvoke(0, unevenness, 4, 2, 0))
        bus.flush()
        assert collector.shards == (0, 1)
        shard0 = collector.shard_snapshot(0)
        shard1 = collector.shard_snapshot(1)
        assert shard0.counters["repro_swl_invocations_total"].value == 1
        assert shard1.counters["repro_swl_invocations_total"].value == 1
        merged = collector.snapshot()
        assert merged.counters["repro_swl_invocations_total"].value == 2
        # Gauge uses max aggregation: the worst shard wins.
        assert merged.gauges["repro_swl_unevenness"].value == 5.0

    def test_swl_latency_histogram(self):
        bus = EventBus()
        collector = MetricsCollector()
        bus.subscribe(collector)
        bus.emit(SwlInvoke(findex=0, unevenness=3.0, ecnt=9, fcnt=3,
                           latency_erases=2))
        bus.emit(BetReset(resets=1, findex=4))
        bus.flush()
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_swl_invocations_total"].value == 1
        assert snapshot.counters["repro_bet_resets_total"].value == 1
        assert snapshot.gauges["repro_swl_unevenness"].value == 3.0
        hist = snapshot.histograms["repro_swl_trigger_latency_erases"]
        assert hist.count == 1
        assert hist.sum == 2


# ----------------------------------------------------------------------
# The one delivery path: ordered, attached-window-exact, shard-faithful
# ----------------------------------------------------------------------
_COLD_EVENTS = (
    GcStart(reason="free-space", victim=1),
    GcEnd(reason="free-space", victim=1, copies=2, erases=1),
    GcEnd(reason="swl", victim=2, copies=0, erases=0),
    SwlInvoke(findex=0, unevenness=2.5, ecnt=5, fcnt=2, latency_erases=1),
    SwlInvoke(findex=3, unevenness=1.25, ecnt=5, fcnt=4, latency_erases=7),
    BetReset(resets=1, findex=3),
)
#: action -> (mask bit, op kind, event class, emitter, device counter, arity)
_HOT = {
    "read": (M_READ, K_READ, Read, "emit_read", "reads", 2),
    "program": (M_PROGRAM, K_PROGRAM, Program, "emit_program", "programs", 3),
    "erase": (M_ERASE, K_ERASE, Erase, "emit_erase", "erases", 2),
}
#: The root bus, two views with own clocks, a shard-1 view on the root's clock.
_EMITTER_SHARDS = (0, 1, 2, 1)
_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("sub", "unsub")), st.integers(0, 2)),
        st.tuples(st.just("cold"), st.integers(0, 3), st.sampled_from(_COLD_EVENTS)),
        st.tuples(st.sampled_from(tuple(_HOT)), st.integers(0, 3),
                  st.tuples(*[st.integers(0, 7)] * 3)),
    ),
    max_size=60,
)


def _naive_fold(cold, devices):
    """Per-shard metric values from first principles: plain dicts only."""
    folded = {}
    for shard, device in devices.items():
        folded[shard] = {f"repro_flash_{kind}_total": total
                         for kind, total in vars(device.counters).items() if total}
        folded[shard]["repro_flash_max_block_erases"] = device.max_erase_count()
    for shard, event in cold:
        values = folded[shard]

        def add(name, amount=1):
            values[name] = values.get(name, 0) + amount

        if isinstance(event, GcStart):
            add("repro_gc_passes_total")
            add("repro_gc_passes_free_space_total")
        elif isinstance(event, GcEnd):
            add("repro_gc_copied_pages_total", event.copies)
            add("repro_gc_erases_total", event.erases)
            if values["repro_gc_erases_total"]:
                values["repro_gc_copy_amplification"] = round(
                    values["repro_gc_copied_pages_total"] / values["repro_gc_erases_total"], 6)
        elif isinstance(event, SwlInvoke):
            add("repro_swl_invocations_total")
            values["repro_swl_unevenness"] = round(event.unevenness, 6)
            add("repro_swl_trigger_latency_erases:count")
            add("repro_swl_trigger_latency_erases:sum", event.latency_erases)
        else:
            add("repro_bet_resets_total")
    return folded


def _flat(snapshot):
    values = {n: s.value for n, s in (*snapshot.counters.items(), *snapshot.gauges.items())}
    for name, sample in snapshot.histograms.items():
        values.update({name + ":count": sample.count, name + ":sum": sample.sum})
    return values


@settings(max_examples=120, deadline=None)
@given(steps=_steps, capacity=st.sampled_from((1, 3, 4096)))
def test_one_delivery_path_is_ordered_exact_and_shard_faithful(steps, capacity):
    """Hot and cold emissions across the root bus and shard views, with
    subscriptions changing in between: each subscriber gets exactly the ops
    emitted while attached, in order, under the emitter's tag and clock; the
    collector holds the naive fold of its cold events plus the devices' totals."""
    now = {0: 0.0, 1: 0.0, 2: 0.0}
    bus = EventBus(clock=lambda: now[0])
    emitters = {0: bus}
    clocks = (None, lambda: now[1], lambda: now[2], None)
    ops, records, collector = [], [], MetricsCollector()
    assert collector.interest_mask == ALL_EVENTS & ~HOT_KINDS
    batch = SimpleNamespace(  # a batch subscriber that wants everything
        interest_mask=ALL_EVENTS, needs_timestamps=True, consume_batch=ops.extend)
    subscribers = (batch, records.append, collector)
    attached = [False, False, False]
    expected_ops, expected_records, cold_folded = [], [], []
    devices = {shard: _FakeHotSource() for shard in (0, 1, 2)}
    with mock.patch.object(bus_module, "BATCH_CAPACITY", capacity):
        for tick, (action, index, *rest) in enumerate(steps, start=1):
            if action in ("sub", "unsub"):
                if action == "unsub":  # of an absent subscriber: a no-op
                    bus.unsubscribe(subscribers[index])
                elif not attached[index]:
                    bus.subscribe(subscribers[index])
                attached[index] = action == "sub"
                continue
            shard = _EMITTER_SHARDS[index]
            if index not in emitters:  # views appear mid-stream too
                emitters[index] = bus.for_shard(shard, clocks[index])
            emitter = emitters[index]
            now[shard if clocks[index] else 0] = ts = tick + 0.5
            if action == "cold":
                emitter.emit(event := rest[0])
                op = (K_OBJ, ts, shard, event)
                if attached[2]:
                    cold_folded.append((shard, event))
            else:
                # What the chip does: count, then emit behind the mask.
                bit, kind, event_class, emit, counter, arity = _HOT[action]
                device, args = devices[shard], rest[0][:arity]
                setattr(device.counters, counter, getattr(device.counters, counter) + 1)
                if action == "erase":
                    device._max_erases = max(device._max_erases, args[1])
                fired = bool(emitter.mask & bit)
                assert fired == (attached[0] or attached[1])
                if not fired:
                    continue
                getattr(emitter, emit)(*args)
                event, op = event_class(*args), (kind, ts, shard, *args)
            if attached[0]:
                expected_ops.append(op)
            if attached[1]:
                expected_records.append((ts, shard, event))
        bus.flush()
    assert ops == expected_ops
    assert [(r.ts, r.shard, r.event) for r in records] == expected_records
    collector.pull_hot_counters(devices)
    naive = _naive_fold(cold_folded, devices)
    assert collector.shards == tuple(sorted(naive))
    for shard, values in naive.items():
        assert _flat(collector.shard_snapshot(shard)) == values


# ----------------------------------------------------------------------
# Pulled hot counters
# ----------------------------------------------------------------------
def _FakeHotSource(reads=0, programs=0, erases=0, max_erases=0):
    """Minimal :class:`HotCounterSource`: counters plus a wear maximum."""
    counters = SimpleNamespace(reads=reads, programs=programs, erases=erases)
    source = SimpleNamespace(counters=counters, _max_erases=max_erases)
    source.max_erase_count = lambda: source._max_erases
    return source


class TestPulledHotCounters:
    def test_repeated_pulls_apply_exact_deltas(self):
        collector = MetricsCollector()
        source = _FakeHotSource(reads=10, programs=5, erases=3, max_erases=7)
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 10
        assert snapshot.counters["repro_flash_programs_total"].value == 5
        assert snapshot.counters["repro_flash_erases_total"].value == 3
        assert snapshot.gauges["repro_flash_max_block_erases"].value == 7

        # The device advances; the next pull adds only the delta.
        source.counters.reads = 25
        source.counters.erases = 4
        source._max_erases = 9
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 25
        assert snapshot.counters["repro_flash_programs_total"].value == 5
        assert snapshot.counters["repro_flash_erases_total"].value == 4
        assert snapshot.gauges["repro_flash_max_block_erases"].value == 9

        # An idle pull (periodic snapshot, final flush) changes nothing.
        collector.pull_hot_counters({0: source})
        assert collector.snapshot() == snapshot

    def test_stray_hot_events_never_double_count(self):
        # Another subscriber (say a trace exporter) may keep hot events
        # flowing; the collector must take hot totals from pulls only.
        collector = MetricsCollector()
        collector.consume_batch([
            (K_OBJ, 0.0, 0, Read(block=0, page=0)),
            (K_READ, 0.0, 0, 0, 0),
            (K_ERASE, 0.0, 0, 0, 5),
            (K_OBJ, 0.0, 0, Program(block=0, page=1, lba=2)),
        ])
        source = _FakeHotSource(reads=4, programs=2, erases=1, max_erases=5)
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 4
        assert snapshot.counters["repro_flash_programs_total"].value == 2
        assert snapshot.counters["repro_flash_erases_total"].value == 1

    def test_cold_events_still_fold_in_pull_mode(self):
        collector = MetricsCollector()
        collector.consume_batch([(K_OBJ, 0.0, 0, BetReset(resets=1, findex=2))])
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_bet_resets_total"].value == 1

    def test_rewound_device_rebaselines_without_negative_delta(self):
        # A checkpoint restore can rewind a device's cumulative totals;
        # the pull must not decrement counters (impossible) nor replay
        # the rewound span later — it re-baselines at the lower value.
        collector = MetricsCollector()
        source = _FakeHotSource(reads=100, programs=50, erases=20,
                                max_erases=9)
        collector.pull_hot_counters({0: source})
        source.counters.reads = 40      # restore rewound the device
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 100
        # Post-restore progress counts from the new baseline.
        source.counters.reads = 70
        collector.pull_hot_counters({0: source})
        snapshot = collector.snapshot()
        assert snapshot.counters["repro_flash_reads_total"].value == 130

    def test_per_shard_pulls_keep_registries_separate(self):
        collector = MetricsCollector()
        collector.pull_hot_counters({
            0: _FakeHotSource(reads=3, max_erases=2),
            1: _FakeHotSource(reads=7, max_erases=6),
        })
        assert collector.shards == (0, 1)
        shard0 = collector.shard_snapshot(0)
        shard1 = collector.shard_snapshot(1)
        assert shard0.counters["repro_flash_reads_total"].value == 3
        assert shard1.counters["repro_flash_reads_total"].value == 7
        merged = collector.snapshot()
        assert merged.counters["repro_flash_reads_total"].value == 10
        assert merged.gauges["repro_flash_max_block_erases"].value == 6


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonlTraceExporter(path)
        bus = EventBus(clock=lambda: 1.25)
        bus.subscribe(exporter)
        bus.emit(Erase(block=2, count=9))
        bus.for_shard(3).emit(Read(block=0, page=1))
        bus.flush()
        exporter.close()
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert exporter.records_written == 2
        assert lines[0] == {"ts": 1.25, "shard": 0, "kind": "erase",
                            "block": 2, "count": 9}
        assert lines[1]["shard"] == 3
        assert lines[1]["kind"] == "read"

    def test_chrome_trace_round_trips_and_pairs_gc(self, tmp_path):
        exporter = ChromeTraceExporter("unit")
        bus = EventBus(clock=lambda: 2.0)
        bus.subscribe(exporter)
        bus.emit(GcStart(reason="free-space", victim=7))
        bus.emit(GcEnd(reason="free-space", victim=7, copies=3, erases=1))
        bus.emit(SwlInvoke(findex=1, unevenness=2.0, ecnt=4, fcnt=2,
                           latency_erases=0))
        bus.flush()
        path = tmp_path / "trace.chrome.json"
        exporter.dump(path)
        document = json.load(open(path))
        events = document["traceEvents"]
        phases = [e["ph"] for e in events]
        assert "B" in phases and "E" in phases and "i" in phases
        begin = next(e for e in events if e["ph"] == "B")
        # Timestamps are microseconds of simulated time.
        assert begin["ts"] == pytest.approx(2.0 * 1e6)
        assert begin["name"] == "GC free-space"

    def test_log_exporter_routes_channels(self, caplog):
        bus = EventBus()
        bus.subscribe(LogExporter())
        with caplog.at_level(logging.INFO, logger="repro"):
            bus.emit(SwlInvoke(findex=0, unevenness=2.0, ecnt=4, fcnt=2,
                               latency_erases=0))
            bus.flush()
        assert any(r.name == "repro.leveler" for r in caplog.records)


# ----------------------------------------------------------------------
# Chip instrumentation and listener lifecycle
# ----------------------------------------------------------------------
class TestChipInstrumentation:
    def test_chip_emits_program_read_erase(self):
        # Reads and programs are emitted by the MTD, erases by the chip;
        # each is stamped with the device's busy time after that op.
        mtd = MtdDevice(NandFlash(MLC2_TINY))
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        mtd.attach_bus(bus)
        mtd.write_page(0, 0, lba=5)
        mtd.read_page(0, 0)
        mtd.erase_block(0)
        bus.flush()
        kinds = [r.event.kind for r in records]
        assert kinds == ["program", "read", "erase"]
        assert records[0].event.payload() == {"block": 0, "page": 0, "lba": 5}
        assert records[2].event.payload() == {"block": 0, "count": 1}
        timing = mtd.timing
        assert [r.ts for r in records] == [
            timing.program_page,
            timing.program_page + timing.read_page,
            timing.program_page + timing.read_page + timing.erase_block,
        ]

    def test_erase_event_precedes_listener_work(self):
        """SWL work an erase listener triggers must trace causally after."""
        flash = NandFlash(MLC2_TINY)
        bus = EventBus()
        order = []
        bus.subscribe(lambda record: order.append(record.event.kind))
        flash.attach_bus(bus)
        # The listener's own emission stands for the SWL work it triggers.
        flash.add_erase_listener(lambda block: bus.emit(BetReset(1, block)))
        flash.erase(0)
        bus.flush()
        assert order == ["erase", "bet_reset"]

    def test_attach_bus_none_detaches(self):
        flash = NandFlash(MLC2_TINY)
        flash.attach_bus(EventBus())
        assert flash._obs is not None
        flash.attach_bus(None)
        assert flash._obs is None


class TestEraseListenerLifecycle:
    def test_remove_is_idempotent(self):
        flash = NandFlash(MLC2_TINY)
        calls = []
        listener = calls.append
        flash.add_erase_listener(listener)
        flash.remove_erase_listener(listener)
        flash.remove_erase_listener(listener)  # double detach: no-op
        flash.erase(0)
        assert calls == []

    def test_remove_absent_listener_is_noop(self):
        flash = NandFlash(MLC2_TINY)
        flash.remove_erase_listener(lambda block: None)

    def test_removal_during_dispatch_keeps_snapshot(self):
        flash = NandFlash(MLC2_TINY)
        fired = []

        def second(block):
            fired.append("second")

        def first(block):
            fired.append("first")
            flash.remove_erase_listener(second)

        flash.add_erase_listener(first)
        flash.add_erase_listener(second)
        flash.erase(0)
        # In-flight dispatch iterates its pre-removal snapshot.
        assert fired == ["first", "second"]
        flash.erase(1)
        assert fired == ["first", "second", "first"]

    def test_clear_drops_all_listeners(self):
        flash = NandFlash(MLC2_TINY)
        calls = []
        flash.add_erase_listener(lambda block: calls.append(block))
        flash.clear_erase_listeners()
        flash.erase(0)
        assert calls == []


# ----------------------------------------------------------------------
# The off path: disabled telemetry costs nothing
# ----------------------------------------------------------------------
class _CountingEvent:
    """Stands in for an event class; counts every instantiation."""

    instances = 0

    def __init__(self, *args, **kwargs):
        type(self).instances += 1


def _gc_heavy_stack(driver, bus=None):
    """A full device rewritten hot enough to collect and force-recycle."""
    stack = build_stack(MLC2_TINY, driver, SWLConfig(threshold=2, k=0), bus=bus)
    pages = stack.layer.num_logical_pages
    stack.write_pages(range(pages))
    rng = random.Random(7)
    for _ in range(3000):
        hot = rng.random() < 0.9
        stack.write_pages((rng.randrange(pages // 8 if hot else pages),))
    return stack


class TestDisabledPath:
    def test_disabled_stack_emits_and_allocates_nothing(self, monkeypatch):
        # Hot events are built inside the bus module's emit_* fast paths
        # (the chip calls emit_read/... without constructing anything);
        # cold GC/recovery events are still built at their emit sites.
        _CountingEvent.instances = 0
        for module, names in (
            (bus_module, ("Read", "Program", "Erase")),
            (ftl_base_module, ("GcStart", "GcEnd", "Recovery")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, _CountingEvent)
        stack = build_stack(MLC2_TINY, "ftl", SWLConfig(threshold=20, k=0))
        pages = stack.layer.num_logical_pages
        for index in range(3000):
            stack.layer.write(index % pages)
            stack.layer.read(index % pages)
        assert stack.total_erases() > 0  # GC certainly ran...
        assert _CountingEvent.instances == 0  # ...without one event object

    def test_subscriberless_bus_allocates_and_timestamps_nothing(
        self, monkeypatch
    ):
        # A bus with no subscribers must early-return from every emit
        # path: no TraceRecord, no event object, not even a clock read.
        clock_calls = []

        def counting_clock():
            clock_calls.append(1)
            return 0.0

        _CountingEvent.instances = 0
        for name in ("TraceRecord", "Read", "Program", "Erase"):
            monkeypatch.setattr(bus_module, name, _CountingEvent)
        for module, names in (
            (ftl_base_module, ("GcStart", "GcEnd", "Recovery")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, _CountingEvent)
        bus = EventBus(clock=counting_clock)
        stack = build_stack(
            MLC2_TINY, "ftl", SWLConfig(threshold=20, k=0), bus=bus
        )
        pages = stack.layer.num_logical_pages
        for index in range(3000):
            stack.layer.write(index % pages)
            stack.layer.read(index % pages)
        assert stack.total_erases() > 0
        assert _CountingEvent.instances == 0
        assert clock_calls == []

    @pytest.mark.parametrize("driver", ["ftl", "nftl"])
    def test_disabled_gc_passes_build_no_traced_bracket(
        self, monkeypatch, driver
    ):
        # Collection and forced recycles both run, and none of their
        # brackets builds an event or the traced generator.
        _CountingEvent.instances = 0
        for name in ("GcStart", "GcEnd"):
            monkeypatch.setattr(ftl_base_module, name, _CountingEvent)
        traced = []
        monkeypatch.setattr(
            ftl_base_module.TranslationLayer, "_traced_gc_pass",
            lambda *args: traced.append(args),
        )
        stack = _gc_heavy_stack(driver)
        assert stack.layer.stats.gc_runs > 0
        assert stack.layer.stats.forced_recycles > 0
        assert _CountingEvent.instances == 0 and traced == []

    @pytest.mark.parametrize("driver", ["ftl", "nftl"])
    def test_enabled_gc_passes_pair_every_start_with_one_end(self, driver):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        stack = _gc_heavy_stack(driver, bus=bus)
        bus.flush()
        open_passes, reasons = [], set()
        for record in records:
            event = record.event
            if event.kind == "gc_start":
                open_passes.append((event.reason, event.victim))
                reasons.add(event.reason)
            elif event.kind == "gc_end":
                assert open_passes.pop() == (event.reason, event.victim)
        assert open_passes == []
        assert {"free-space", "swl"} <= reasons
        gc_passes = sum(1 for record in records if record.event.kind == "gc_end")
        assert gc_passes >= (
            stack.layer.stats.gc_runs + stack.layer.stats.forced_recycles
        )

    def test_enabled_stack_does_emit(self):
        bus = EventBus()
        records = []
        bus.subscribe(records.append)
        stack = build_stack(
            MLC2_TINY, "ftl", SWLConfig(threshold=20, k=0), bus=bus
        )
        pages = stack.layer.num_logical_pages
        for index in range(3000):
            stack.layer.write(index % pages)
        bus.flush()
        kinds = {record.event.kind for record in records}
        assert {"program", "erase", "gc_start", "gc_end"} <= kinds
        # Timestamps track the device's simulated busy time.
        assert records[-1].ts == pytest.approx(stack.mtd.busy_time)


# ----------------------------------------------------------------------
# Engine heatmaps and end-to-end equivalence
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_run():
    spec = ExperimentSpec(
        "ftl", scaled_mlc2_geometry(24, scale=100),
        SWLConfig(threshold=20, k=2), seed=3,
    )
    params = workload_params_for(spec, duration=1800.0, seed=3)
    return spec, MobilePCWorkload(params).requests()


class TestEngineHeatmaps:
    def test_enabled_run_attaches_at_least_two_heatmaps(self, small_run):
        spec, trace = small_run
        telemetry = Telemetry(heatmap_interval=600.0, heatmap_bins=8)
        result = run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
        assert len(result.heatmaps) >= 2
        assert all(len(h.cells) <= 8 for h in result.heatmaps)
        # Monotonic capture times, final snapshot at end of run.
        times = [h.ts for h in result.heatmaps]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(result.sim_time)
        assert result.heatmaps[-1].total_erases == result.total_erases
        assert "heatmap_snapshots" in result.as_dict()

    def test_disabled_run_attaches_none(self, small_run):
        spec, trace = small_run
        result = run_fixed_horizon(spec, trace, 3600.0)
        assert result.heatmaps == []
        assert "heatmap_snapshots" not in result.as_dict()

    def test_heatmap_decimation_bounds_series(self, monkeypatch):
        monkeypatch.setattr(sim_core, "MAX_HEATMAPS", 4)
        simulator = Simulator(
            build_stack(MLC2_TINY, "ftl"), heatmap_interval=1.0
        )
        for _ in range(40):
            simulator.clock += 1.0
            simulator._take_heatmap()
        assert len(simulator.heatmaps) <= 4
        assert simulator.heatmap_interval > 1.0


class TestTelemetryEquivalence:
    def test_single_channel_result_identical_minus_telemetry_keys(
        self, small_run
    ):
        spec, trace = small_run
        plain = run_fixed_horizon(spec, trace, 3600.0)
        telemetry = Telemetry(heatmap_interval=600.0)
        traced = run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
        off, on = plain.as_dict(), traced.as_dict()
        on.pop("heatmap_snapshots")
        assert off == on

    def test_four_channel_result_identical_minus_telemetry_keys(
        self, small_run
    ):
        # The batched dispatcher and pulled hot counters must not change
        # a multi-channel replay: telemetry on vs off, bit-identical
        # results minus the telemetry-only keys.
        spec, trace = small_run
        array_spec = ExperimentSpec(
            spec.driver, spec.geometry, spec.swl, seed=spec.seed,
            channels=4, striping="page", swl_scope="global",
        )
        plain = run_fixed_horizon(array_spec, trace, 3600.0)
        telemetry = Telemetry(heatmap_interval=600.0)
        traced = run_fixed_horizon(
            array_spec, trace, 3600.0, telemetry=telemetry
        )
        off, on = plain.as_dict(), traced.as_dict()
        on.pop("heatmap_snapshots")
        assert off == on

    def test_metrics_agree_with_result_counters(self, small_run):
        spec, trace = small_run
        telemetry = Telemetry()
        result = run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
        snapshot = telemetry.snapshot()
        assert (snapshot.counters["repro_flash_erases_total"].value
                == result.total_erases)
        assert (snapshot.counters["repro_gc_copied_pages_total"].value
                == result.live_page_copies)
        assert snapshot.counters["repro_swl_invocations_total"].value >= 1

    def test_multi_channel_metrics_merge_exactly(self, small_run):
        spec, trace = small_run
        array_spec = ExperimentSpec(
            spec.driver, spec.geometry, spec.swl, seed=spec.seed, channels=2,
        )
        telemetry = Telemetry()
        result = run_fixed_horizon(
            array_spec, trace, 3600.0, telemetry=telemetry
        )
        assert telemetry.collector.shards == (0, 1)
        merged = telemetry.snapshot()
        assert (merged.counters["repro_flash_erases_total"].value
                == result.total_erases)
        per_shard = [
            telemetry.collector.shard_snapshot(shard)
            .counters["repro_flash_erases_total"].value
            for shard in telemetry.collector.shards
        ]
        assert sum(per_shard) == result.total_erases


class TestTelemetryFacade:
    def test_to_directory_writes_artifact_set(self, tmp_path, small_run):
        spec, trace = small_run
        telemetry = Telemetry.to_directory(
            tmp_path / "out", heatmap_interval=600.0
        )
        run_fixed_horizon(spec, trace, 3600.0, telemetry=telemetry)
        files = telemetry.finish()
        assert set(files) == {"jsonl", "chrome", "prometheus"}
        assert telemetry.jsonl.records_written > 0
        first = json.loads(
            files["jsonl"].read_text().splitlines()[0]
        )
        assert {"ts", "shard", "kind"} <= set(first)
        document = json.load(open(files["chrome"]))
        assert document["traceEvents"]
        assert "repro_flash_erases_total" in files["prometheus"].read_text()

    @pytest.mark.parametrize("again", ["finish", "snapshot"])
    def test_finish_is_idempotent_and_leaves_the_facade_usable(self, tmp_path, again):
        # Both raised ValueError (closed file): the closed JSONL exporter stayed attached.
        telemetry = Telemetry.to_directory(tmp_path / "out")
        stack = build_stack(MLC2_TINY, "ftl", bus=telemetry.bus)
        stack.layer.write(0)
        files = telemetry.finish()
        written = {name: path.read_bytes() for name, path in files.items()}
        stack.layer.write(1)  # emitted after the files were finalised
        if again == "finish":
            assert telemetry.finish() == files
        else:
            counters = telemetry.snapshot().counters
            assert counters["repro_flash_programs_total"].value == 2
        assert {n: p.read_bytes() for n, p in files.items()} == written
