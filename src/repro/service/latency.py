"""O(1)-memory latency accounting for the service engine.

A soak run pushes millions of requests through the service engine;
keeping every latency sample would cost gigabytes and sorting them for
percentiles would dominate the run.  :class:`LatencyHistogram` is the
package's one histogram type, :class:`repro.obs.metrics.Histogram`, on
fixed geometric buckets (eight per decade from 1 µs to 10,000 s): it
bins with a bisect, keeps exact ``count``/``sum``/``minimum``/``maximum``
beside the bins, and estimates quantiles by linear interpolation within
the landing bucket, clamped to the observed range.  Mean and worst-case
latency are therefore precise; only the interior quantiles are
interpolated (to within one bucket's ~33 % width).

Every published percentile — the service result, the per-tenant
summaries, ``bench/``'s ``sim_p50_ms``/``sim_p99_ms`` — comes from
:meth:`~repro.obs.metrics.Histogram.quantile`.  The metrics registry
receives the same histograms by exact merge and exports their *buckets*;
Prometheus computes its own ``histogram_quantile`` from those.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import Histogram

#: Bucket upper bounds: eight per decade, 1 µs .. 10,000 s.  Latencies in
#: this simulator are NAND service times (25 µs reads to multi-second
#: GC-amplified stalls), so the range brackets everything a sane run can
#: produce; beyond-range observations land in the +Inf overflow slot.
_DECADES = 10          # 1e-6 .. 1e4
_PER_DECADE = 8
LATENCY_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    1e-6 * 10.0 ** (index / _PER_DECADE)
    for index in range(_DECADES * _PER_DECADE + 1)
)


@dataclass(frozen=True)
class LatencySummary:
    """Frozen percentile summary of one latency population."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def as_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "mean_s": self.mean,
            "p50_s": self.p50,
            "p95_s": self.p95,
            "p99_s": self.p99,
            "max_s": self.maximum,
        }


class LatencyHistogram(Histogram):
    """A :class:`~repro.obs.metrics.Histogram` on ``LATENCY_BUCKET_BOUNDS``."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("latency", "", LATENCY_BUCKET_BOUNDS)

    def summary(self) -> LatencySummary:
        """Freeze the population into a :class:`LatencySummary`."""
        return LatencySummary(
            count=self.count,
            mean=self.sum / self.count if self.count else 0.0,
            p50=self.quantile(0.50),
            p95=self.quantile(0.95),
            p99=self.quantile(0.99),
            maximum=self.maximum,
        )
