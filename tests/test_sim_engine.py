"""Tests for the simulation engine, stop conditions, and metrics."""

from __future__ import annotations

import pytest

import repro.sim.core as sim_core
from repro.core.config import SWLConfig
from repro.ftl.factory import build_stack
from repro.sim.engine import Simulator, StopCondition
from repro.sim.metrics import (
    EraseDistribution,
    first_failure_years,
    improvement_ratio,
    increased_ratio,
)
from repro.traces.extend import SegmentResampler
from repro.traces.generator import MobilePCWorkload, WorkloadParams
from repro.traces.model import Op, Request
from repro.util.rng import make_rng


def write(time, lba, sectors=1):
    return Request(time, Op.WRITE, lba, sectors)


def read(time, lba, sectors=1):
    return Request(time, Op.READ, lba, sectors)


class TestStopCondition:
    def test_needs_some_criterion(self):
        with pytest.raises(ValueError, match="stop criterion"):
            StopCondition()

    @pytest.mark.parametrize("kwargs", [{"max_time": 0}, {"max_requests": 0}])
    def test_positive_bounds(self, kwargs):
        with pytest.raises(ValueError):
            StopCondition(**kwargs)


class TestSimulatorBasics:
    def test_sector_to_page_conversion(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        spp = small_geometry.sectors_per_page
        # One request spanning 2.5 pages touches 3 logical pages.
        simulator.apply(write(0.0, 0, sectors=2 * spp + 1))
        assert simulator.pages_written == 3

    def test_clock_advances_monotonically(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        simulator.apply(write(5.0, 0))
        simulator.apply(write(3.0, 0))  # out-of-order time is clamped
        assert simulator.clock == 5.0

    def test_reads_and_writes_counted(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        simulator.apply(write(0.0, 0))
        simulator.apply(read(1.0, 0))
        assert simulator.pages_written == 1
        assert simulator.pages_read == 1
        assert simulator.requests_done == 2

    def test_lba_modulo_wraps(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        big_lba = stack.layer.num_logical_pages * small_geometry.sectors_per_page * 3
        simulator.apply(write(0.0, big_lba))  # must not raise
        assert simulator.pages_written == 1

    def test_lba_modulo_wraps_multi_page_span(self, small_geometry):
        # A request that starts on the last logical page and spans past the
        # end of the logical space must wrap per-page back to page 0.
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        spp = small_geometry.sectors_per_page
        last_page = stack.layer.num_logical_pages - 1
        simulator.apply(write(0.0, last_page * spp, sectors=3 * spp))
        assert simulator.pages_written == 3
        assert stack.layer.stats.host_writes == 3
        # The wrapped tail landed on pages 0 and 1 — reading them must
        # hit mapped pages (media reads, not unmapped misses).
        reads_before = stack.flash.counters.reads
        stack.layer.read(0)
        stack.layer.read(1)
        assert stack.flash.counters.reads == reads_before + 2

    def test_skip_reads_counts_but_does_not_touch(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack, skip_reads=True)
        simulator.apply(read(0.0, 0, sectors=8))
        assert simulator.pages_read == 2  # 8 sectors / 4 per page
        assert stack.layer.stats.host_reads == 0


class TestRun:
    def test_max_requests(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        trace = [write(float(i), i % 8) for i in range(100)]
        result = simulator.run(trace, StopCondition(max_requests=10))
        assert result.requests == 10

    def test_max_time(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        trace = [write(float(i), i % 8) for i in range(100)]
        result = simulator.run(trace, StopCondition(max_time=50.0))
        assert result.sim_time <= 50.0
        assert result.requests == 51  # times 0..50 inclusive

    def test_until_first_failure(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        trace = (write(float(i), i % 4) for i in range(10**9))
        result = simulator.run(
            trace, StopCondition(until_first_failure=True, max_requests=10**9)
        )
        assert result.first_failure_time is not None
        assert stack.flash.first_failure is not None

    def test_failure_clock_pinned_when_run_continues(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)

        def endless():
            step = 0
            while True:
                yield write(float(step), step % 4)
                step += 1

        # Run far past the first failure under a request budget.
        result = simulator.run(endless(), StopCondition(max_requests=200_000))
        assert result.first_failure_time is not None
        assert result.first_failure_time < result.sim_time

    def test_result_label_defaults_to_stack_name(self, small_geometry):
        stack = build_stack(small_geometry, "nftl", SWLConfig(threshold=10))
        simulator = Simulator(stack)
        result = simulator.run([write(0.0, 0)], StopCondition(max_requests=1))
        assert result.label == stack.name
        assert "swl_erases" in result.as_dict() or result.swl_stats

    def test_result_as_dict_keys(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        result = simulator.run([write(0.0, 0)], StopCondition(max_requests=1),
                               label="X")
        data = result.as_dict()
        assert data["label"] == "X"
        assert data["requests"] == 1
        assert data["erase_max"] == 0

    def test_result_as_dict_busy_time_and_layer_stats(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack)
        trace = [write(float(i), i % 16) for i in range(200)]
        result = simulator.run(trace, StopCondition(max_requests=200))
        data = result.as_dict()
        assert data["device_busy_time"] == result.device_busy_time
        assert result.device_busy_time > 0.0
        assert data["channels"] == 1
        # Every layer counter is exported with a layer_ prefix.
        for key, value in result.layer_stats.items():
            assert data[f"layer_{key}"] == value
        assert data["layer_host_writes"] == 200

    def test_resampled_replay_validates_no_row(self, small_geometry, monkeypatch):
        # A Trace checks its columns once; the rows the resampler hands to
        # the replay are tuples built in C, not Request.__new__ calls.
        base = MobilePCWorkload(WorkloadParams(
            total_sectors=131_072, duration=4 * 3600.0, seed=11)).requests()
        validating_new = Request.__new__
        calls = 0

        def counting_new(cls, *args, **kwargs):
            nonlocal calls
            calls += 1
            return validating_new(cls, *args, **kwargs)

        monkeypatch.setattr(Request, "__new__", counting_new)
        write(0.0, 0)
        assert calls == 1  # the counter sees a validating construction

        simulator = Simulator(build_stack(small_geometry, "ftl"))
        stream = SegmentResampler(base, rng=make_rng(5)).iter_requests()
        result = simulator.run(stream, StopCondition(max_requests=10_000))
        assert result.requests == 10_000
        assert calls == 1


class TestTimelineBound:
    @pytest.fixture
    def four_samples(self, monkeypatch):
        monkeypatch.setattr(sim_core, "MAX_SAMPLES", 4)

    @pytest.mark.usefixtures("four_samples")
    def test_decimation_keeps_timeline_bounded(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack, sample_interval=1.0)
        for i in range(64):
            simulator.apply(write(float(i), i % 8))
            assert len(simulator.timeline) <= 4
        # Decimation fired: the interval doubled at least once and the
        # surviving samples still span the whole run.
        assert simulator.sample_interval > 1.0
        assert simulator.timeline[0].time < simulator.timeline[-1].time

    @pytest.mark.usefixtures("four_samples")
    def test_decimation_doubles_interval_each_time(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack, sample_interval=1.0)
        for i in range(64):
            simulator.apply(write(float(i), i % 8))
        # 64 seconds of 1 Hz sampling under a 4-sample cap needs the
        # interval to have doubled repeatedly: 1 -> 2 -> 4 -> ...
        assert simulator.sample_interval in {8.0, 16.0, 32.0}

    def test_no_cap_grows_freely(self, small_geometry):
        # Below MAX_SAMPLES nothing is decimated.
        stack = build_stack(small_geometry, "ftl")
        simulator = Simulator(stack, sample_interval=1.0)
        for i in range(32):
            simulator.apply(write(float(i), i % 8))
        assert len(simulator.timeline) == 32
        assert simulator.sample_interval == 1.0


class TestMetrics:
    def test_erase_distribution(self):
        distribution = EraseDistribution.from_counts([0, 10, 20])
        assert distribution.average == pytest.approx(10.0)
        assert distribution.maximum == 20
        assert distribution.minimum == 0
        assert distribution.total == 30
        assert distribution.deviation == pytest.approx(8.1649, rel=1e-3)
        assert distribution.row() == [10, 8, 20]

    def test_erase_distribution_empty(self):
        with pytest.raises(ValueError):
            EraseDistribution.from_counts([])

    def test_erase_distribution_merge_is_exact(self):
        parts = [[0, 10, 20], [5, 5], [100, 3, 7, 9]]
        merged = EraseDistribution.merge(
            [EraseDistribution.from_counts(counts) for counts in parts]
        )
        flat = EraseDistribution.from_counts(
            [count for counts in parts for count in counts]
        )
        assert merged.total == flat.total
        assert merged.maximum == flat.maximum
        assert merged.minimum == flat.minimum
        assert merged.blocks == flat.blocks == 9
        assert merged.average == pytest.approx(flat.average)
        assert merged.deviation == pytest.approx(flat.deviation)

    def test_erase_distribution_merge_validation(self):
        with pytest.raises(ValueError):
            EraseDistribution.merge([])
        legacy = EraseDistribution(
            average=1.0, deviation=0.0, maximum=1, minimum=1, total=2
        )
        with pytest.raises(ValueError, match="block count"):
            EraseDistribution.merge([legacy])

    def test_first_failure_years(self):
        assert first_failure_years(None) is None
        assert first_failure_years(365 * 86_400.0) == pytest.approx(1.0)

    def test_increased_ratio(self):
        assert increased_ratio(103.5, 100.0) == pytest.approx(103.5)
        with pytest.raises(ValueError):
            increased_ratio(1.0, 0.0)

    def test_improvement_ratio_paper_headline(self):
        # Paper: FTL first failure improved by 51.2%.
        assert improvement_ratio(151.2, 100.0) == pytest.approx(51.2)
