"""Tests for the open-loop service engine (:mod:`repro.service`).

The contract under test, in order of importance:

1. backend mutations are bit-identical to a closed-loop replay of the
   same arrival-timed request stream (the queueing model is pure
   accounting, layered on top);
2. the per-channel FIFO/backpressure math is deterministic and sane
   (monotone completions, bounded admission, stalls counted);
3. latency histograms are exact in count/mean/max and sensible in the
   interpolated quantiles, and merge exactly;
4. telemetry integration: queue-depth gauges, latency histograms in the
   metrics registries, and Chrome-trace counter tracks.
"""

from __future__ import annotations

import json
import random
from itertools import islice

import pytest

from repro.core.config import SWLConfig
from repro.obs import ChromeTraceExporter
from repro.obs.telemetry import Telemetry
from repro.service import (
    LATENCY_BUCKET_BOUNDS,
    LatencyHistogram,
    ServiceEngine,
    open_loop_rate,
    poisson_arrivals,
    trace_paced,
)
from repro.service.engine import _Channel
from repro.sim.engine import Simulator, StopCondition
from repro.sim.experiment import (
    ExperimentSpec,
    run_service_soak,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.extend import SegmentResampler
from repro.traces.generator import MobilePCWorkload
from repro.traces.model import Op, Request
from repro.util.rng import make_rng, spawn_rng


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def spec() -> ExperimentSpec:
    return ExperimentSpec(
        "nftl",
        scaled_mlc2_geometry(num_blocks=24, scale=100),
        SWLConfig(threshold=20.0, k=2),
        seed=11,
        channels=2,
    )


@pytest.fixture(scope="module")
def base_trace(spec: ExperimentSpec) -> list[Request]:
    params = workload_params_for(spec, duration=1800.0, seed=3)
    return MobilePCWorkload(params).requests()


def arrival_stream(
    spec: ExperimentSpec, base_trace: list[Request], n: int, rate: float = 200.0
) -> list[Request]:
    """A finite arrival-timed request list, derived like the runners do."""
    rng = make_rng(spec.seed)
    endless = SegmentResampler(
        base_trace, rng=spawn_rng(rng, "resampler")
    ).iter_requests()
    return list(
        islice(poisson_arrivals(endless, rate, spawn_rng(rng, "arrivals")), n)
    )


# ----------------------------------------------------------------------
# Latency histogram
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    def test_exact_count_mean_max(self):
        hist = LatencyHistogram()
        for value in (1e-5, 2e-4, 3e-3, 4e-2):
            hist.observe(value)
        assert hist.count == 4
        assert hist.summary().mean == pytest.approx(
            (1e-5 + 2e-4 + 3e-3 + 4e-2) / 4)
        assert hist.maximum == 4e-2
        assert hist.minimum == 1e-5

    def test_quantile_brackets_sample(self):
        hist = LatencyHistogram()
        hist.observe(1e-3)
        # A single observation: every quantile lands in its bucket,
        # whose bounds bracket the value within one bucket's width.
        for q in (0.5, 0.95, 0.99):
            assert hist.quantile(q) <= hist.maximum
            assert hist.quantile(q) >= 1e-3 / 10 ** (1 / 8)

    def test_quantile_never_exceeds_observed_max(self):
        hist = LatencyHistogram()
        for _ in range(1000):
            hist.observe(5e-4)
        hist.observe(2.0)
        assert hist.quantile(0.999) <= 2.0
        assert hist.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_order(self):
        hist = LatencyHistogram()
        rng = random.Random(5)
        for _ in range(5000):
            hist.observe(rng.expovariate(1000.0))
        assert hist.quantile(0.5) <= hist.quantile(0.95) <= hist.quantile(0.99)

    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.99) == 0.0
        summary = hist.summary()
        assert summary.mean == 0.0
        assert summary.count == 0
        assert summary.p99 == 0.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_overflow_observation(self):
        hist = LatencyHistogram()
        hist.observe(99999.0)  # beyond the last bound: overflow slot
        assert hist.count == 1
        assert hist.counts[-1] == 1
        # Overflow interpolates between the last finite bound and the
        # exact observed maximum, and never exceeds the maximum.
        assert LATENCY_BUCKET_BOUNDS[-1] <= hist.quantile(0.99) <= 99999.0
        assert hist.quantile(1.0) == pytest.approx(99999.0)

    def test_merge_is_exact(self):
        rng = random.Random(7)
        samples = [rng.expovariate(500.0) for _ in range(2000)]
        whole = LatencyHistogram()
        left, right = LatencyHistogram(), LatencyHistogram()
        for index, value in enumerate(samples):
            whole.observe(value)
            (left if index % 2 else right).observe(value)
        left.merge(right)
        assert left.counts == whole.counts
        assert left.count == whole.count
        assert left.sum == pytest.approx(whole.sum)
        assert left.maximum == whole.maximum
        assert left.minimum == whole.minimum

    def test_bucket_layout(self):
        # Eight per decade over ten decades, plus the 1e-6 lower edge.
        assert len(LATENCY_BUCKET_BOUNDS) == 81
        assert LATENCY_BUCKET_BOUNDS[0] == pytest.approx(1e-6)
        assert LATENCY_BUCKET_BOUNDS[-1] == pytest.approx(1e4)


# ----------------------------------------------------------------------
# Arrival models
# ----------------------------------------------------------------------
class TestArrivals:
    def requests(self, n: int = 10) -> list[Request]:
        return [
            Request(time=float(i), op=Op.WRITE, lba=i * 8, sectors=4)
            for i in range(n)
        ]

    def test_open_loop_rate(self):
        assert open_loop_rate(2000, 0.5) == pytest.approx(4000.0)
        with pytest.raises(ValueError):
            open_loop_rate(0, 1.0)
        with pytest.raises(ValueError):
            open_loop_rate(10, 0.0)

    def test_poisson_monotone_and_deterministic(self):
        first = list(
            poisson_arrivals(self.requests(), 100.0, random.Random(3))
        )
        second = list(
            poisson_arrivals(self.requests(), 100.0, random.Random(3))
        )
        assert [r.time for r in first] == [r.time for r in second]
        times = [r.time for r in first]
        assert all(b > a for a, b in zip(times, times[1:]))
        # Access pattern untouched; only timing replaced.
        assert [r.lba for r in first] == [r.lba for r in self.requests()]

    def test_poisson_rate_validation(self):
        with pytest.raises(ValueError):
            list(poisson_arrivals(self.requests(), 0.0, random.Random(1)))

    def test_trace_paced_identity(self):
        original = self.requests()
        assert list(trace_paced(original)) == original

    def test_trace_paced_speedup(self):
        paced = list(trace_paced(self.requests(), speedup=4.0))
        assert [r.time for r in paced] == [i / 4.0 for i in range(10)]
        with pytest.raises(ValueError):
            list(trace_paced(self.requests(), speedup=0.0))

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_poisson_rate_checked_at_call_time(self, rate):
        with pytest.raises(ValueError, match="rate must be positive"):
            poisson_arrivals(self.requests(), rate, random.Random(1))

    @pytest.mark.parametrize("speedup", [0.0, -2.0])
    def test_trace_paced_speedup_checked_at_call_time(self, speedup):
        with pytest.raises(ValueError, match="speedup must be positive"):
            trace_paced(self.requests(), speedup=speedup)

    def test_poisson_draws_one_gap_per_arrival(self):
        rng, reference_rng = random.Random(5), random.Random(5)
        arrivals = poisson_arrivals(self.requests(), 50.0, rng)
        now = 0.0
        for request, arrival in zip(self.requests(4), arrivals):
            now += reference_rng.expovariate(50.0)
            assert arrival == Request(now, request.op, request.lba, request.sectors)
        assert rng.getstate() == reference_rng.getstate()


# ----------------------------------------------------------------------
# Channel queue math
# ----------------------------------------------------------------------
class TestChannelQueue:
    def test_fifo_completion_monotone(self):
        channel = _Channel()
        done = [channel.complete(t, 1.0, depth=8) for t in (0.0, 0.1, 0.2)]
        # Service is FIFO: each starts when the previous completes.
        assert done == pytest.approx([1.0, 2.0, 3.0])
        assert channel.served == 3
        assert channel.stalls == 0

    def test_idle_channel_serves_at_arrival(self):
        channel = _Channel()
        assert channel.complete(5.0, 0.5, depth=8) == pytest.approx(5.5)
        assert channel.complete(100.0, 0.5, depth=8) == pytest.approx(100.5)
        assert channel.stalls == 0

    def test_backpressure_waits_for_slot(self):
        channel = _Channel()
        # Fill a depth-2 queue with two 10 s jobs arriving at t=0.
        channel.complete(0.0, 10.0, depth=2)   # completes 10
        channel.complete(0.0, 10.0, depth=2)   # completes 20
        # Third arrival finds the queue full: admission waits until the
        # first job leaves (t=10), service starts at t=20 (FIFO).
        done = channel.complete(0.0, 10.0, depth=2)
        assert done == pytest.approx(30.0)
        assert channel.stalls == 1
        assert channel.stall_time == pytest.approx(10.0)

    def test_latency_includes_queueing(self):
        channel = _Channel()
        channel.complete(0.0, 1.0, depth=8)
        channel.complete(0.0, 1.0, depth=8)
        # Second request waited a full service time: latency 2 s.
        assert channel.latency.maximum == pytest.approx(2.0)

    def test_occupancy_drains(self):
        channel = _Channel()
        channel.complete(0.0, 1.0, depth=8)
        channel.complete(0.0, 1.0, depth=8)
        assert channel.occupancy_at(0.5) == 2
        assert channel.occupancy_at(1.5) == 1
        assert channel.occupancy_at(10.0) == 0


# ----------------------------------------------------------------------
# Service engine
# ----------------------------------------------------------------------
class TestServiceEngine:
    def test_validation(self, spec):
        stack = spec.build()
        with pytest.raises(ValueError, match="queue_depth"):
            ServiceEngine(stack, queue_depth=0)
        engine = ServiceEngine(spec.build())
        with pytest.raises(ValueError, match="max_requests or max_time"):
            engine.serve(iter([]))

    def test_serves_and_reports(self, spec, base_trace):
        arrivals = arrival_stream(spec, base_trace, 2000)
        engine = ServiceEngine(spec.build(), queue_depth=8)
        result = engine.serve(arrivals, max_requests=2000, label="svc")
        assert result.label == "svc"
        assert result.requests == 2000
        assert result.channels == 2
        assert result.latency.p50 <= result.latency.p95 <= result.latency.p99
        assert result.latency.maximum > 0
        assert result.completion_time >= result.replay.sim_time
        served = sum(stats.served for stats in result.channel_stats)
        assert served > 0
        data = json.dumps(result.as_dict())  # JSON-serializable end to end
        assert "latency_p99_s" in data

    def test_deterministic(self, spec, base_trace):
        def run():
            arrivals = arrival_stream(spec, base_trace, 1500)
            engine = ServiceEngine(spec.build(), queue_depth=8)
            return engine.serve(arrivals, max_requests=1500)

        assert run().as_dict() == run().as_dict()

    def test_wear_identical_to_closed_loop_replay(self, spec, base_trace):
        """The queueing layer must not perturb backend mutations."""
        arrivals = arrival_stream(spec, base_trace, 2500)

        engine = ServiceEngine(spec.build(), queue_depth=4)
        service_view = engine.serve(
            arrivals, max_requests=2500, label="x"
        ).replay.as_dict()

        simulator = Simulator(spec.build(), skip_reads=False)
        replay_view = simulator.run(
            iter(arrivals), StopCondition(max_requests=2500), label="x"
        ).as_dict()

        assert service_view == replay_view

    def test_max_time_bound(self, spec, base_trace):
        arrivals = arrival_stream(spec, base_trace, 5000)
        engine = ServiceEngine(spec.build())
        result = engine.serve(arrivals, max_time=5.0)
        assert 0 < result.requests < 5000
        assert result.replay.sim_time <= 5.0

    def test_backpressure_engages_under_overload(self, spec, base_trace):
        arrivals = arrival_stream(spec, base_trace, 2000, rate=100_000.0)
        engine = ServiceEngine(spec.build(), queue_depth=2)
        result = engine.serve(arrivals, max_requests=2000)
        assert result.stalls > 0
        assert any(s.peak_depth >= 2 for s in result.channel_stats)

    def test_run_service_soak_arrival_model_required(self, spec, base_trace):
        with pytest.raises(ValueError, match="exactly one arrival model"):
            run_service_soak(spec, base_trace, max_requests=10)
        with pytest.raises(ValueError, match="exactly one arrival model"):
            run_service_soak(
                spec, base_trace, rate=10.0, trace_speedup=2.0, max_requests=10
            )


# ----------------------------------------------------------------------
# Telemetry integration
# ----------------------------------------------------------------------
class TestServiceTelemetry:
    def run_with_telemetry(self, spec, base_trace, **kwargs):
        telemetry = Telemetry(run_name="svc-test")
        chrome = ChromeTraceExporter()
        telemetry.bus.subscribe(chrome)
        arrivals = arrival_stream(spec, base_trace, 1200)
        engine = ServiceEngine(
            spec.build(telemetry=telemetry),
            queue_depth=4,
            telemetry=telemetry,
            queue_sample_every=100,
            **kwargs,
        )
        result = engine.serve(arrivals, max_requests=1200)
        return telemetry, chrome, result

    def test_latency_histograms_in_registry(self, spec, base_trace):
        telemetry = Telemetry(run_name="svc-test")
        engine = ServiceEngine(
            spec.build(telemetry=telemetry), queue_depth=4,
            telemetry=telemetry, queue_sample_every=100,
        )
        result = engine.serve(arrival_stream(spec, base_trace, 1200),
                              max_requests=1200)
        snapshot = telemetry.snapshot()
        # The registry holds the engine's own histogram, merged exactly:
        # the exported buckets are the ones every percentile came from.
        overall = snapshot.histograms["repro_service_request_latency_seconds"]
        assert overall.buckets == engine.latency.buckets
        assert overall.counts == tuple(engine.latency.counts)
        assert overall.sum == engine.latency.sum
        assert overall.count == engine.latency.count == result.requests
        per_channel = snapshot.histograms[
            "repro_service_channel_latency_seconds"
        ]
        assert per_channel.count == sum(
            stats.served for stats in result.channel_stats
        )
        assert per_channel.buckets == LATENCY_BUCKET_BOUNDS

    def test_queue_depth_gauges(self, spec, base_trace):
        telemetry, _, result = self.run_with_telemetry(spec, base_trace)
        snapshot = telemetry.snapshot()
        depth = snapshot.gauges["repro_service_queue_depth"]
        stalls = snapshot.gauges["repro_service_queue_stalls"]
        assert depth.agg == "max"
        assert depth.value >= 0
        assert depth.value <= max(s.peak_depth for s in result.channel_stats)
        # Per-shard stall gauges sum across channels in the merged view.
        assert stalls.agg == "sum"
        assert stalls.value == result.stalls

    def test_chrome_trace_counter_tracks(self, spec, base_trace):
        _, chrome, _ = self.run_with_telemetry(spec, base_trace)
        events = chrome.trace_object()["traceEvents"]
        depth_samples = [e for e in events if e.get("name") == "queue depth"]
        assert depth_samples, "no queue-depth counter events exported"
        assert all(e["ph"] == "C" for e in depth_samples)
        assert all(e["cat"] == "service" for e in depth_samples)
        # Timestamps carry the virtual arrival clock, strictly advancing
        # within a channel's track.
        by_channel: dict[int, list[float]] = {}
        for event in depth_samples:
            by_channel.setdefault(event["tid"], []).append(event["ts"])
        for series in by_channel.values():
            assert series == sorted(series)
        assert any(e.get("name") == "queue stalls" for e in events)

    def test_publish_metrics_once(self, spec, base_trace):
        telemetry, _, result = self.run_with_telemetry(spec, base_trace)
        snapshot_before = telemetry.snapshot()
        # finish() is idempotent: a second call must not double-fold.
        engine_count = snapshot_before.histograms[
            "repro_service_request_latency_seconds"
        ].count
        assert engine_count == result.requests

    def test_telemetry_on_off_replay_identical(self, spec, base_trace):
        telemetry, _, with_telemetry = self.run_with_telemetry(
            spec, base_trace
        )
        arrivals = arrival_stream(spec, base_trace, 1200)
        engine = ServiceEngine(spec.build(), queue_depth=4)
        without = engine.serve(arrivals, max_requests=1200)
        assert with_telemetry.as_dict() == without.as_dict()
