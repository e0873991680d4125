"""Open-loop service engine: per-channel FIFO queues on the virtual clock.

Where the closed-loop :class:`~repro.sim.engine.Simulator` completes every
request instantly at its trace timestamp, :class:`ServiceEngine` models the
device as a long-running *service*: requests arrive from an arrival process
(:mod:`repro.service.arrival`), queue per channel in bounded FIFOs, and
complete when the channel has actually worked off everything ahead of them
— so a GC pass or an SWL-forced recycle triggered by one request lands as
queueing delay on the requests behind it.  That is the host-visible
p50/p95/p99 view of cleaning interference the wear counters cannot show.

Determinism contract
--------------------
Backend *mutations* happen in arrival order through the exact same
:meth:`~repro.sim.core.RequestCore.apply` path as the replay engine —
striping order, GC decisions, and SWL triggers are bit-identical to a
closed-loop replay of the same arrival-timed trace.  The queueing model is
layered on top as pure accounting: each request's service demand is the
per-shard ``busy_time`` delta its application produced (amplification
included), and per-channel completion times are derived from those demands
without feeding back into the backend.  Channels therefore *serve
concurrently* on the virtual clock while the simulated state stays
single-threaded and reproducible.

Queueing model (DESIGN.md §5g)
------------------------------
Each channel keeps an ascending deque of outstanding completion times.
On an arrival at ``t`` needing ``s`` seconds of a channel:

1. completions ``<= t`` are drained (those requests have left the queue);
2. if occupancy is still at the bound ``queue_depth``, admission waits
   until the oldest entry that frees a slot completes (backpressure —
   the stall is counted and its wait added to the request's latency);
3. service is FIFO: it starts at ``max(admission, previous completion)``
   and completes ``s`` seconds later.

A request spanning several channels completes when the *last* of its
per-channel completions does.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable

from repro.flash.errors import PowerLossError
from repro.obs.bus import M_QUEUE_DEPTH
from repro.obs.events import QueueDepth
from repro.service.latency import LATENCY_BUCKET_BOUNDS, LatencyHistogram
from repro.service.results import ChannelServiceStats, ServiceResult
from repro.sim.core import RequestCore
from repro.traces.model import Request

if TYPE_CHECKING:
    from repro.ftl.factory import StorageBackend
    from repro.obs.telemetry import Telemetry

#: Emit a QueueDepth sample (and fold latency into the registry) every
#: this many served requests when telemetry is attached.
DEFAULT_QUEUE_SAMPLE_EVERY = 4096


class _Channel:
    """Mutable per-channel queue state (ascending completion times)."""

    __slots__ = (
        "pending", "last_completion", "served", "busy",
        "stalls", "stall_time", "peak_depth", "latency",
    )

    def __init__(self) -> None:
        self.pending: deque[float] = deque()
        self.last_completion = 0.0
        self.served = 0
        self.busy = 0.0
        self.stalls = 0
        self.stall_time = 0.0
        self.peak_depth = 0
        self.latency = LatencyHistogram()

    def complete(self, arrival: float, service: float, depth: int) -> float:
        """Queue ``service`` seconds arriving at ``arrival``; completion time."""
        pending = self.pending
        while pending and pending[0] <= arrival:
            pending.popleft()
        admit = arrival
        occupancy = len(pending)
        if occupancy >= depth:
            # Bounded queue: the arrival blocks until occupancy drops
            # below the bound, i.e. until the oldest of the entries that
            # must leave first completes.  pending[0] > arrival after the
            # drain above, so the wait is strictly positive.
            admit = pending[occupancy - depth]
            self.stalls += 1
            self.stall_time += admit - arrival
        start = admit if admit > self.last_completion else self.last_completion
        done = start + service
        self.last_completion = done
        pending.append(done)
        if len(pending) > self.peak_depth:
            self.peak_depth = len(pending)
        self.served += 1
        self.busy += service
        self.latency.observe(done - arrival)
        return done

    def occupancy_at(self, now: float) -> int:
        """Outstanding requests at virtual time ``now`` (drains finished).

        Counts admitted *and* backpressure-waiting requests, so under
        open-loop overload the value exceeds the configured bound —
        that excess is the visible symptom of saturation.
        """
        pending = self.pending
        while pending and pending[0] <= now:
            pending.popleft()
        return len(pending)


class ServiceEngine(RequestCore):
    """Schedules requests through bounded per-channel FIFO queues.

    Parameters beyond the :class:`~repro.sim.core.RequestCore` set:

    queue_depth:
        Per-channel outstanding-request bound; an arrival finding its
        channel full waits (open-loop backpressure) and the wait counts
        toward its latency.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`: queue-depth
        gauges stream as :class:`~repro.obs.events.QueueDepth` events
        through the bus, and the latency histograms fold into the
        metrics registries when the run finishes, so Prometheus and
        Chrome-trace artifacts carry the tail-latency data.
    queue_sample_every:
        Served-request period of the telemetry queue-depth samples.

    Reads are never skipped in service mode (``skip_reads`` stays
    ``False``): read service time is exactly what the latency percentiles
    exist to measure, even though reads cannot change wear.
    """

    def __init__(
        self,
        stack: "StorageBackend",
        *,
        queue_depth: int = 64,
        telemetry: "Telemetry | None" = None,
        queue_sample_every: int = DEFAULT_QUEUE_SAMPLE_EVERY,
        heatmap_interval: float | None = None,
        heatmap_bins: int = 64,
    ) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if queue_sample_every < 1:
            raise ValueError(
                f"queue_sample_every must be >= 1, got {queue_sample_every}"
            )
        super().__init__(
            stack,
            skip_reads=False,
            heatmap_interval=heatmap_interval,
            heatmap_bins=heatmap_bins,
        )
        self.queue_depth = queue_depth
        self.telemetry = telemetry
        self.queue_sample_every = queue_sample_every
        self.channels = [_Channel() for _ in range(stack.num_shards)]
        self.latency = LatencyHistogram()
        #: Optional per-request observer, called as ``on_served(request,
        #: latency)`` right after a request's end-to-end latency is
        #: recorded.  Pure accounting — it cannot influence scheduling —
        #: used by :mod:`repro.workloads.runner` for per-tenant
        #: attribution.
        self.on_served: Callable[[Request, float], None] | None = None
        self._metrics_published = False
        # Queue samples are timestamped with the *arrival clock*, not a
        # device's busy time: occupancy over virtual time is the curve an
        # operator would watch.  Shard-tagged bus views carry that clock.
        self._sample_time = 0.0
        self._queue_views = (
            [
                telemetry.bus.for_shard(shard, clock=self._sample_clock)
                for shard in range(stack.num_shards)
            ]
            if telemetry is not None
            else []
        )

    def _sample_clock(self) -> float:
        return self._sample_time

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Iterable[Request],
        *,
        max_requests: int | None = None,
        max_time: float | None = None,
        label: str | None = None,
    ) -> ServiceResult:
        """Serve ``requests`` until a bound is hit; summarize.

        ``max_requests`` counts requests served by *this* call (warmup
        applied beforehand through :meth:`apply` is excluded);
        ``max_time`` bounds the arrival clock in virtual seconds.  At
        least one bound is required — arrival processes are endless.
        """
        if max_requests is None and max_time is None:
            raise ValueError("an open-loop run needs max_requests or max_time")
        if max_requests is not None and max_requests <= 0:
            raise ValueError(f"max_requests must be positive, got {max_requests}")
        if max_time is not None and max_time <= 0:
            raise ValueError(f"max_time must be positive, got {max_time}")
        stack = self.stack
        channels = self.channels
        depth = self.queue_depth
        overall = self.latency
        shard_busy_times = stack.shard_busy_times
        telemetry = self.telemetry
        sample_every = self.queue_sample_every if telemetry is not None else 0
        on_served = self.on_served
        served = 0
        before = shard_busy_times()
        for request in requests:
            arrival = request.time
            if max_time is not None and arrival > max_time:
                break
            try:
                self.apply(request)
            except PowerLossError:
                self.power_lost = True
                break
            after = shard_busy_times()
            completion = arrival
            for shard, channel in enumerate(channels):
                service = after[shard] - before[shard]
                if service > 0.0:
                    done = channel.complete(arrival, service, depth)
                    if done > completion:
                        completion = done
            before = after
            overall.observe(completion - arrival)
            if on_served is not None:
                on_served(request, completion - arrival)
            served += 1
            if sample_every and served % sample_every == 0:
                self._sample_queues(arrival)
            if max_requests is not None and served >= max_requests:
                break
        return self.finish(label=label)

    def finish(self, *, label: str | None = None) -> ServiceResult:
        """Close the run: final telemetry samples, then the result."""
        if self.telemetry is not None:
            self._sample_queues(self.clock)
            self._publish_metrics()
            self.telemetry.flush()
        completion_time = self.clock
        stats: list[ChannelServiceStats] = []
        for index, channel in enumerate(self.channels):
            if channel.last_completion > completion_time:
                completion_time = channel.last_completion
            stats.append(
                ChannelServiceStats(
                    channel=index,
                    served=channel.served,
                    busy_time=channel.busy,
                    peak_depth=channel.peak_depth,
                    stalls=channel.stalls,
                    stall_time=channel.stall_time,
                    latency=channel.latency.summary(),
                )
            )
        return ServiceResult(
            replay=self.result(label=label),
            queue_depth=self.queue_depth,
            latency=self.latency.summary(),
            channel_stats=stats,
            completion_time=completion_time,
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _sample_queues(self, now: float) -> None:
        """Emit one :class:`QueueDepth` event per channel (batched path)."""
        assert self.telemetry is not None
        if not self.telemetry.bus.mask & M_QUEUE_DEPTH:
            return
        self._sample_time = now
        for view, channel in zip(self._queue_views, self.channels):
            view.emit(
                QueueDepth(depth=channel.occupancy_at(now),
                           stalls=channel.stalls)
            )

    def _publish_metrics(self) -> None:
        """Merge the latency histograms into the telemetry registries, once.

        Per-channel service latencies land in each shard's registry (they
        merge exactly into the device-wide histogram, the same discipline
        as every other per-shard metric); the end-to-end request latency
        — a max over channels, which no per-shard merge can reconstruct —
        lands in shard 0's registry and passes through the merge.
        """
        if self._metrics_published:
            return
        self._metrics_published = True
        assert self.telemetry is not None
        collector = self.telemetry.collector
        for shard, channel in enumerate(self.channels):
            collector.registry(shard).histogram(
                "repro_service_channel_latency_seconds",
                "Per-channel request service latency (queueing included)",
                buckets=LATENCY_BUCKET_BOUNDS,
            ).merge(channel.latency)
        collector.registry(0).histogram(
            "repro_service_request_latency_seconds",
            "End-to-end request latency (slowest channel of each request)",
            buckets=LATENCY_BUCKET_BOUNDS,
        ).merge(self.latency)
