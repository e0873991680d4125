"""Metrics registry: counters, gauges, histograms with exact merging.

A :class:`MetricsRegistry` is a mutable bag of named instruments updated
by the collector as events arrive.  :meth:`MetricsRegistry.snapshot`
freezes it into a :class:`MetricsSnapshot` — plain immutable samples —
and snapshots **compose across array shards exactly**, the same way
``EraseDistribution.merge`` reconstitutes a global erase distribution
from per-shard sufficient statistics:

* counters add;
* histograms with identical bucket bounds add bucket-wise (sum and
  count included), which is exact because the buckets are fixed and
  agreed on up front — asking the registry for a histogram under other
  bounds than it was created with is an error;
* gauges carry an explicit aggregation (``"sum"``, ``"max"``, ``"min"``)
  chosen per metric — e.g. the unevenness gauge merges with ``max``
  (the array's wear ceiling is its worst shard).

:class:`Histogram` is the one histogram type in the package: the
registry's instruments, the service engine's latency histograms
(:class:`repro.service.latency.LatencyHistogram` fixes its bounds) and
the per-tenant latencies all bin and estimate through it, and
:meth:`Histogram.quantile` is the one quantile estimator.

:func:`render_prometheus` serialises a snapshot in the Prometheus text
exposition format (``# HELP`` / ``# TYPE`` / samples, histogram
``_bucket{le=...}`` with cumulative counts).  Prometheus gets buckets,
not quantiles: it computes its own ``histogram_quantile`` from them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass


class Counter:
    """Monotonically increasing count."""

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value with a declared cross-shard aggregation."""

    AGGREGATIONS = ("sum", "max", "min")

    def __init__(self, name: str, help: str, agg: str = "max") -> None:
        if agg not in self.AGGREGATIONS:
            raise ValueError(f"unknown gauge aggregation {agg!r}")
        self.name = name
        self.help = help
        self.agg = agg
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram of non-negative observations.

    ``buckets`` are upper bounds, ascending; ``counts`` has one slot per
    bucket plus a final +Inf overflow slot, and an observation lands in
    the first bucket whose bound is ``>= value``.  Exact ``count``,
    ``sum``, ``minimum`` and ``maximum`` ride alongside the bins, so only
    the interior quantiles are estimates.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count",
                 "minimum", "maximum")

    def __init__(self, name: str, help: str,
                 buckets: tuple[float, ...]) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ValueError("histogram buckets must be strictly ascending")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(buckets) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        self.minimum = float("inf")
        self.maximum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (runs once per request on the service row)."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.maximum:
            self.maximum = value
        if value < self.minimum:
            self.minimum = value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within buckets.

        Observations are taken as uniform within their bucket, and the
        first bucket interpolates from zero.  The estimate is clamped to
        the exact observed ``[min, max]``, so p0 and p100 (and any
        quantile landing in the first or final occupied bucket) never
        leave the range of values that actually happened; the overflow
        slot interpolates up to the exact maximum.  Returns 0.0 when
        empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        buckets = self.buckets
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count and cumulative + bucket_count >= rank:
                # An empty bucket never satisfies the rank: when the rank
                # was met exactly at the previous bucket's boundary, the
                # samples that meet it live in this, the *next occupied*
                # bucket — interpolating from an empty one would take the
                # wrong bucket's edges with a non-positive fraction.
                lower = buckets[index - 1] if index else 0.0
                if index < len(buckets):
                    upper = buckets[index]
                else:
                    upper = self.maximum  # overflow slot: exact ceiling
                fraction = max(0.0, (rank - cumulative) / bucket_count)
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += bucket_count
        return self.maximum

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram in place (exact)."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name!r} merged with differing buckets")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        if other.minimum < self.minimum:
            self.minimum = other.minimum


@dataclass(frozen=True)
class CounterSample:
    """Frozen counter state."""

    name: str
    help: str
    value: float


@dataclass(frozen=True)
class GaugeSample:
    """Frozen gauge state, tagged with its merge aggregation."""

    name: str
    help: str
    value: float
    agg: str


@dataclass(frozen=True)
class HistogramSample:
    """Frozen histogram state (non-cumulative per-bucket counts)."""

    name: str
    help: str
    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int


class MetricsRegistry:
    """Get-or-create registry of instruments, keyed by metric name."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        existing = self._counters.get(name)
        if existing is None:
            existing = self._counters[name] = Counter(name, help)
        return existing

    def gauge(self, name: str, help: str = "", agg: str = "max") -> Gauge:
        existing = self._gauges.get(name)
        if existing is None:
            existing = self._gauges[name] = Gauge(name, help, agg)
        return existing

    def histogram(self, name: str, help: str = "", *,
                  buckets: tuple[float, ...]) -> Histogram:
        """The histogram called ``name``; its bounds must be ``buckets``."""
        existing = self._histograms.get(name)
        if existing is None:
            existing = self._histograms[name] = Histogram(name, help, buckets)
        elif existing.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with other buckets")
        return existing

    def snapshot(self) -> "MetricsSnapshot":
        """Freeze current values into an immutable, mergeable snapshot."""
        return MetricsSnapshot(
            counters={
                n: CounterSample(n, c.help, c.value)
                for n, c in self._counters.items()
            },
            gauges={
                n: GaugeSample(n, g.help, g.value, g.agg)
                for n, g in self._gauges.items()
            },
            histograms={
                n: HistogramSample(n, h.help, h.buckets, tuple(h.counts),
                                   h.sum, h.count)
                for n, h in self._histograms.items()
            },
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable metric samples; merging across shards is exact."""

    counters: dict[str, CounterSample]
    gauges: dict[str, GaugeSample]
    histograms: dict[str, HistogramSample]

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Exact composition of two shards' snapshots.

        Counters and histogram buckets add; gauges apply their declared
        aggregation.  Metrics present on only one side pass through
        unchanged, so shards need not expose identical metric sets.
        """
        counters = dict(self.counters)
        for name, sample in other.counters.items():
            mine = counters.get(name)
            counters[name] = sample if mine is None else CounterSample(
                name, mine.help or sample.help, mine.value + sample.value)

        gauges = dict(self.gauges)
        for name, sample in other.gauges.items():
            mine = gauges.get(name)
            if mine is None:
                gauges[name] = sample
                continue
            if mine.agg != sample.agg:
                raise ValueError(
                    f"gauge {name!r} merged with conflicting aggregations "
                    f"{mine.agg!r} and {sample.agg!r}")
            combine = {"sum": lambda a, b: a + b, "max": max, "min": min}
            gauges[name] = GaugeSample(
                name, mine.help or sample.help,
                combine[mine.agg](mine.value, sample.value), mine.agg)

        histograms = dict(self.histograms)
        for name, sample in other.histograms.items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = sample
                continue
            if mine.buckets != sample.buckets:
                raise ValueError(
                    f"histogram {name!r} merged with differing buckets")
            histograms[name] = HistogramSample(
                name, mine.help or sample.help, mine.buckets,
                tuple(a + b for a, b in zip(mine.counts, sample.counts)),
                mine.sum + sample.sum, mine.count + sample.count)

        return MetricsSnapshot(counters, gauges, histograms)

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly view (used by ``repro trace --summary``)."""
        return {
            "counters": {n: s.value for n, s in sorted(self.counters.items())},
            "gauges": {n: s.value for n, s in sorted(self.gauges.items())},
            "histograms": {
                n: {"buckets": list(s.buckets), "counts": list(s.counts),
                    "sum": s.sum, "count": s.count}
                for n, s in sorted(self.histograms.items())
            },
        }


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Serialise ``snapshot`` in the Prometheus text exposition format."""
    lines: list[str] = []
    for name in sorted(snapshot.counters):
        sample = snapshot.counters[name]
        if sample.help:
            lines.append(f"# HELP {name} {sample.help}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(sample.value)}")
    for name in sorted(snapshot.gauges):
        gauge = snapshot.gauges[name]
        if gauge.help:
            lines.append(f"# HELP {name} {gauge.help}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(gauge.value)}")
    for name in sorted(snapshot.histograms):
        histogram = snapshot.histograms[name]
        if histogram.help:
            lines.append(f"# HELP {name} {histogram.help}")
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, bucket_count in zip(histogram.buckets, histogram.counts):
            cumulative += bucket_count
            lines.append(f'{name}_bucket{{le="{_format_value(bound)}"}} '
                         f"{cumulative}")
        cumulative += histogram.counts[-1]
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {_format_value(histogram.sum)}")
        lines.append(f"{name}_count {histogram.count}")
    return "\n".join(lines) + "\n"
