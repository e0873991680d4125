"""Request-application core shared by every simulation driver.

The closed-loop replay engine (:class:`~repro.sim.engine.Simulator`) and
the open-loop service engine (:class:`~repro.service.engine.ServiceEngine`)
apply requests to a storage backend in exactly the same way: advance the
simulated clock, translate the sector span to logical pages, hand the
batch to the backend, account pages and failures, and sample wear.  That
shared mechanism lives here as :class:`RequestCore`; the drivers differ
only in *when* requests arrive (trace timestamps vs an arrival process)
and in what they layer on top (stop conditions and checkpointing vs
per-channel queues and latency accounting).

The core drives the :class:`~repro.ftl.factory.StorageBackend` protocol
only — it never touches a chip, driver, or leveler directly — so the same
request loop serves a single :class:`~repro.ftl.factory.StorageStack` and
a multi-channel :class:`~repro.array.DeviceArray` alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.flash.errors import PowerLossError
from repro.ftl.factory import StorageBackend
from repro.obs.heatmap import WearHeatmap
from repro.sim.metrics import EraseDistribution, first_failure_years
from repro.traces.model import Op, Request

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry


@dataclass(frozen=True)
class StopCondition:
    """When to end a replay.  The first satisfied criterion wins.

    ``until_first_failure`` ends the run the moment any block exceeds its
    endurance; ``max_time`` is a simulated-seconds horizon; ``max_requests``
    is a hard budget (also the safety net for endless traces).
    """

    until_first_failure: bool = False
    max_time: float | None = None
    max_requests: int | None = None

    def __post_init__(self) -> None:
        if (
            not self.until_first_failure
            and self.max_time is None
            and self.max_requests is None
        ):
            raise ValueError("an unbounded replay needs at least one stop criterion")
        if self.max_time is not None and self.max_time <= 0:
            raise ValueError(f"max_time must be positive, got {self.max_time}")
        if self.max_requests is not None and self.max_requests <= 0:
            raise ValueError(f"max_requests must be positive, got {self.max_requests}")


@dataclass(frozen=True)
class WearSample:
    """One point of the wear-evolution time series."""

    time: float            #: simulated seconds
    average: float
    deviation: float
    maximum: int
    total_erases: int


@dataclass
class SimResult:
    """Outcome of one replay."""

    label: str
    requests: int
    pages_written: int
    pages_read: int
    sim_time: float                      #: simulated seconds covered
    first_failure_time: float | None    #: simulated seconds, None = no failure
    erase_distribution: EraseDistribution
    total_erases: int
    live_page_copies: int
    gc_runs: int
    layer_stats: dict[str, int]
    swl_stats: dict[str, int] = field(default_factory=dict)
    device_busy_time: float = 0.0
    timeline: list[WearSample] = field(default_factory=list)
    #: Injector counters when a fault campaign was attached (else empty).
    fault_stats: dict[str, int] = field(default_factory=dict)
    #: ``True`` when a scheduled power loss ended the replay early.
    power_lost: bool = False
    #: Per-shard erase distributions of a multi-channel backend; empty for
    #: a single stack (the aggregate is then ``erase_distribution``).
    shard_erase_distributions: list[EraseDistribution] = field(
        default_factory=list
    )
    #: Periodic wear heatmaps (telemetry runs only; see ``repro.obs``).
    heatmaps: list[WearHeatmap] = field(default_factory=list)

    @property
    def first_failure_years(self) -> float | None:
        return first_failure_years(self.first_failure_time)

    @property
    def channels(self) -> int:
        """Channel count of the backend that produced this result."""
        return max(1, len(self.shard_erase_distributions))

    def as_dict(self) -> dict[str, object]:
        return {
            "label": self.label,
            "requests": self.requests,
            "pages_written": self.pages_written,
            "pages_read": self.pages_read,
            "sim_time_s": self.sim_time,
            "device_busy_time": self.device_busy_time,
            "first_failure_s": self.first_failure_time,
            "first_failure_years": self.first_failure_years,
            "erase_avg": self.erase_distribution.average,
            "erase_dev": self.erase_distribution.deviation,
            "erase_max": self.erase_distribution.maximum,
            "total_erases": self.total_erases,
            "live_page_copies": self.live_page_copies,
            "gc_runs": self.gc_runs,
            "channels": self.channels,
            **{f"layer_{k}": v for k, v in self.layer_stats.items()},
            **{f"swl_{k}": v for k, v in self.swl_stats.items()},
            **({"power_lost": self.power_lost} if self.power_lost else {}),
            **{f"fault_{k}": v for k, v in self.fault_stats.items()},
            # Only present on telemetry runs, so a telemetry-off dict is
            # a strict subset of a telemetry-on one (minus this key).
            **(
                {"heatmap_snapshots": [h.as_dict() for h in self.heatmaps]}
                if self.heatmaps
                else {}
            ),
        }


#: Timeline length bound.  When an append would grow past it, the
#: timeline is decimated — every other sample dropped, the sampling
#: interval doubled — so a 10-year horizon holds the resolution it can
#: afford instead of growing without bound.
MAX_SAMPLES = 4096

#: Heatmap count bound, decimated like the timeline (:data:`MAX_SAMPLES`).
MAX_HEATMAPS = 64

#: Bound once: reading a member off its ``Enum`` class goes through the
#: metaclass's ``__getattr__`` hook, a cost ``apply`` would pay per request.
_WRITE = Op.WRITE


class RequestCore:
    """Applies requests to one storage backend; the shared driver core.

    Parameters
    ----------
    stack:
        A wired :class:`~repro.ftl.factory.StorageBackend` — a single
        :class:`~repro.ftl.factory.StorageStack` or a multi-channel
        :class:`~repro.array.DeviceArray`.  Sector addresses beyond its
        logical space always wrap around — the paper keeps "accesses
        within the first 2,097,152 LBAs", and wrapping lets any trace
        drive any chip size.
    skip_reads:
        When ``True``, read requests advance the clock and counters but do
        not touch the stack.  Reads cannot change wear (NAND reads neither
        program nor erase), so the paper's endurance and overhead metrics
        are identical either way; skipping roughly halves replay time.
    sample_interval:
        When set (simulated seconds), the core records a
        :class:`WearSample` of the erase-count distribution every interval
        — the time series behind "the distribution of erase counts over
        blocks was much improved".  ``None`` (default) disables sampling.
        The timeline holds at most :data:`MAX_SAMPLES` samples.
    heatmap_interval:
        When set (simulated seconds), the core snapshots a
        :class:`~repro.obs.heatmap.WearHeatmap` of per-block erase counts
        every interval — the spatial companion of the ``WearSample``
        timeline.  A final snapshot is always taken at the end of the
        run, so any enabled replay that advances the clock yields at
        least two heatmaps.  ``None`` (default) disables them.  At most
        :data:`MAX_HEATMAPS` are kept.
    heatmap_bins:
        Grid width of each heatmap (blocks are binned into this many
        fixed-width cells).
    """

    def __init__(
        self,
        stack: StorageBackend,
        *,
        skip_reads: bool = False,
        sample_interval: float | None = None,
        heatmap_interval: float | None = None,
        heatmap_bins: int = 64,
    ) -> None:
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {sample_interval}"
            )
        if heatmap_interval is not None and heatmap_interval <= 0:
            raise ValueError(
                f"heatmap_interval must be positive, got {heatmap_interval}"
            )
        if heatmap_bins <= 0:
            raise ValueError(f"heatmap_bins must be positive, got {heatmap_bins}")
        self.stack = stack
        self.skip_reads = skip_reads
        self.sample_interval = sample_interval
        self.heatmap_interval = heatmap_interval
        self.heatmap_bins = heatmap_bins
        self.timeline: list[WearSample] = []
        self.heatmaps: list[WearHeatmap] = []
        self._next_sample = 0.0 if sample_interval else float("inf")
        self._next_heatmap = 0.0 if heatmap_interval else float("inf")
        self.clock = 0.0
        self.requests_done = 0
        self.pages_written = 0
        self.pages_read = 0
        self.power_lost = False
        self.first_failure_clock: float | None = None
        self._spp = stack.sectors_per_page
        self._logical_pages = stack.num_logical_pages
        # Reusable page-span buffers: the replay loop would otherwise
        # materialize a fresh list per request (millions over a 10-year
        # horizon).  Safe because backends consume the batch within the
        # call and never keep a reference.
        self._single_page = [0]
        self._span_buffer: list[int] = []

    # ------------------------------------------------------------------
    def apply(self, request: Request) -> None:
        """Apply one request to the backend and advance the clock.

        The page span is materialized once and handed to the backend as a
        batch; a device array groups it per shard (the batched dispatcher)
        while a single stack applies it page by page in order, making the
        two bit-identical at one channel.
        """
        backend = self.stack
        time, op, lba, sectors = request
        if time > self.clock:  # what max() keeps, without its call
            self.clock = time
        is_write = op is _WRITE
        first = lba // self._spp
        last = (lba + sectors - 1) // self._spp
        if not is_write and self.skip_reads:
            self.pages_read += last - first + 1
        else:
            lpns: Sequence[int]
            if first == last:
                # Single-page fast path — the dominant request shape in
                # the paper's traces.
                buffer = self._single_page
                buffer[0] = first % self._logical_pages
                lpns = buffer
            elif last < self._logical_pages:
                # In-range span: the modulo is the identity, so a lazy
                # range replaces the per-page list materialization.
                lpns = range(first, last + 1)
            else:
                buffer = self._span_buffer
                buffer.clear()
                pages = self._logical_pages
                buffer.extend(lpn % pages for lpn in range(first, last + 1))
                lpns = buffer
            try:
                if is_write:
                    self.pages_written += backend.write_pages(lpns)
                else:
                    self.pages_read += backend.read_pages(lpns)
            except PowerLossError as exc:
                # Recover the partially applied page count the batch was
                # carrying when the lights went out (see factory).
                done = exc.pages_done
                if is_write:
                    self.pages_written += done
                else:
                    self.pages_read += done
                raise
        self.requests_done += 1
        if self.clock >= self._next_sample:
            self._take_sample()
        if self.clock >= self._next_heatmap:
            self._take_heatmap()
        if (
            self.first_failure_clock is None
            and backend.first_failure is not None
        ):
            # Runs past the horizon keep simulating (the paper's Table 4
            # does), but the failure instant is pinned here.
            self.first_failure_clock = self.clock
        backend.on_request(self.clock)

    def _take_sample(self) -> None:
        # O(1): reads the backend's incremental wear accumulator instead
        # of rescanning every block's erase count (bit-identical values;
        # see repro.sim.metrics).
        distribution = self.stack.erase_distribution()
        self.timeline.append(
            WearSample(
                time=self.clock,
                average=distribution.average,
                deviation=distribution.deviation,
                maximum=distribution.maximum,
                total_erases=distribution.total,
            )
        )
        assert self.sample_interval is not None
        if len(self.timeline) >= MAX_SAMPLES:
            # Decimate: keep every other sample and sample half as often,
            # holding memory flat over arbitrarily long horizons while
            # degrading resolution gracefully (oldest data thins first).
            del self.timeline[1::2]
            self.sample_interval *= 2
        self._next_sample = self.clock + self.sample_interval

    def _take_heatmap(self) -> None:
        # O(bins) after the backend's first snapshot seeds its bin sums.
        self.heatmaps.append(
            self.stack.wear_heatmap(self.clock, bins=self.heatmap_bins)
        )
        assert self.heatmap_interval is not None
        if len(self.heatmaps) >= MAX_HEATMAPS:
            # Same decimation scheme as the WearSample timeline.
            del self.heatmaps[1::2]
            self.heatmap_interval *= 2
        self._next_heatmap = self.clock + self.heatmap_interval

    def result(self, *, label: str | None = None) -> SimResult:
        """Snapshot the current state as a :class:`SimResult`.

        Multi-shard backends additionally report one erase distribution
        per shard; the aggregate ``erase_distribution`` is their
        :meth:`~repro.sim.metrics.EraseDistribution.merge`.
        """
        backend = self.stack
        if self.sample_interval is not None and (
            not self.timeline or self.timeline[-1].time < self.clock
        ):
            # Close the timeline with the end-of-run wear state, exactly
            # as the heatmap series below: the timeline used to end one
            # interval short of sim_time, hiding the final wear picture
            # from consumers.
            self._take_sample()
        if self.heatmap_interval is not None and (
            not self.heatmaps or self.heatmaps[-1].ts < self.clock
        ):
            # Close the series with the end-of-run wear picture.
            self._take_heatmap()
        layer_stats = backend.layer_stats()
        shard_distributions = backend.shard_erase_distributions()
        if len(shard_distributions) > 1:
            erase_distribution = EraseDistribution.merge(shard_distributions)
        else:
            erase_distribution = shard_distributions[0]
        return SimResult(
            label=label or backend.name,
            requests=self.requests_done,
            pages_written=self.pages_written,
            pages_read=self.pages_read,
            sim_time=self.clock,
            first_failure_time=self.first_failure_clock,
            erase_distribution=erase_distribution,
            total_erases=backend.total_erases(),
            live_page_copies=layer_stats.get("live_page_copies", 0),
            gc_runs=layer_stats.get("gc_runs", 0),
            layer_stats=layer_stats,
            swl_stats=backend.swl_stats(),
            device_busy_time=backend.busy_time,
            timeline=list(self.timeline),
            fault_stats=backend.fault_stats(),
            power_lost=self.power_lost,
            shard_erase_distributions=(
                shard_distributions if len(shard_distributions) > 1 else []
            ),
            heatmaps=list(self.heatmaps),
        )


def heatmap_kwargs(telemetry: "Telemetry | None") -> dict[str, Any]:
    """Engine constructor arguments for a run's wear-heatmap preferences.

    Without telemetry the engines keep their defaults: no heatmaps.
    """
    if telemetry is None:
        return {}
    return {
        "heatmap_interval": telemetry.heatmap_interval,
        "heatmap_bins": telemetry.heatmap_bins,
    }
