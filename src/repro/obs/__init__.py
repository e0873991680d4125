"""Observability layer: typed events, metrics, heatmaps, exporters.

``repro.obs`` is the stack's telemetry subsystem.  Components emit typed
events (:mod:`repro.obs.events`) on an :class:`~repro.obs.bus.EventBus`,
which delivers them to subscribers in ordered batches;
a :class:`~repro.obs.collect.MetricsCollector` folds them — and the
read/program/erase totals it pulls from the chips — into
counters/gauges/histograms whose snapshots merge exactly across array
shards; exporters serialise the stream as JSONL, Chrome ``trace_event``
JSON (Perfetto-loadable, simulated-time clock), or Prometheus text; and
the simulator attaches periodic :class:`~repro.obs.heatmap.WearHeatmap`
snapshots to its results.

Disabled is the default and costs nothing measurable: components hold
``None`` instead of a bus and skip event construction entirely, runs
stay bit-identical, and no RNG stream is ever consulted.  See
DESIGN.md §5c for the taxonomy, formats, and overhead contract.
"""

from repro.obs.bus import (
    BatchSubscriber,
    BusLike,
    EventBus,
    ShardBus,
    TraceRecord,
)
from repro.obs.collect import MetricsCollector
from repro.obs.events import (
    EVENT_TYPES,
    BetReset,
    Erase,
    Event,
    FaultInjected,
    GcEnd,
    GcScan,
    GcStart,
    PowerLoss,
    Program,
    Read,
    Recovery,
    SwlInvoke,
)
from repro.obs.export import (
    ChromeTraceExporter,
    JsonlTraceExporter,
    LogExporter,
)
from repro.obs.heatmap import WearHeatmap
from repro.obs.metrics import (
    Counter,
    CounterSample,
    Gauge,
    GaugeSample,
    Histogram,
    HistogramSample,
    MetricsRegistry,
    MetricsSnapshot,
    render_prometheus,
)
from repro.obs.telemetry import Telemetry

__all__ = [
    "BatchSubscriber",
    "BetReset",
    "BusLike",
    "ChromeTraceExporter",
    "Counter",
    "CounterSample",
    "Erase",
    "Event",
    "EventBus",
    "EVENT_TYPES",
    "FaultInjected",
    "Gauge",
    "GaugeSample",
    "GcEnd",
    "GcScan",
    "GcStart",
    "Histogram",
    "HistogramSample",
    "JsonlTraceExporter",
    "LogExporter",
    "MetricsCollector",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PowerLoss",
    "Program",
    "Read",
    "Recovery",
    "render_prometheus",
    "ShardBus",
    "SwlInvoke",
    "Telemetry",
    "TraceRecord",
    "WearHeatmap",
]
