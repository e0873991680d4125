"""Workload-shape tests: seed stability, replay-RNG independence,
well-formedness, the phase-shifting migration contract, and the one
finite-output contract every generator shares (a columnar ``Trace``)."""

from __future__ import annotations

import pytest

from repro.core.config import SWLConfig
from repro.sim.experiment import (
    ExperimentSpec,
    run_fixed_horizon,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.generator import (
    MAX_REQUEST_SECTORS,
    SHAPE_NAMES,
    MobilePCWorkload,
    PhaseShiftingWorkload,
    SequentialStreamWorkload,
    ShapeParams,
    WorkloadParams,
    make_shape,
)
from repro.traces.model import Op, Request, Trace

SECTORS = 4096


def take(shape, count):
    stream = shape.iter_requests()
    return [next(stream) for _ in range(count)]


class TestSeedStability:
    @pytest.mark.parametrize("name", SHAPE_NAMES)
    def test_same_seed_same_stream(self, name):
        params = ShapeParams(total_sectors=SECTORS, seed=42)
        first = take(make_shape(name, params), 500)
        second = take(make_shape(name, params), 500)
        assert first == second

    @pytest.mark.parametrize("name", SHAPE_NAMES)
    def test_different_seed_different_stream(self, name):
        a = take(make_shape(name, ShapeParams(total_sectors=SECTORS, seed=1)), 200)
        b = take(make_shape(name, ShapeParams(total_sectors=SECTORS, seed=2)), 200)
        # Arrival times are Poisson draws; different seeds must diverge.
        assert a != b

    @pytest.mark.parametrize("name", SHAPE_NAMES)
    def test_reiteration_replays_identically(self, name):
        # One shape instance restarts its stream on every iteration, so
        # a replay run and a service run can share it.
        shape = make_shape(name, ShapeParams(total_sectors=SECTORS, seed=9))
        assert take(shape, 300) == take(shape, 300)

    def test_shapes_with_same_seed_are_decorrelated(self):
        params = ShapeParams(total_sectors=SECTORS, seed=7)
        hotspot = take(make_shape("hotspot", params), 200)
        uniform = take(make_shape("uniform", params), 200)
        assert [r.lba for r in hotspot] != [r.lba for r in uniform]


class TestReplayIndependence:
    def test_golden_replay_unchanged_with_workloads_active(self):
        """Generator RNG is provably independent of replay RNG.

        The replay digest (``SimResult.as_dict``) must be bit-identical
        whether or not workload generators were built and consumed in
        the same process — workloads draw only from their own
        ``workload:*`` streams.
        """
        spec = ExperimentSpec(
            "ftl", scaled_mlc2_geometry(16, scale=100),
            SWLConfig(threshold=50.0), seed=3,
        )
        params = workload_params_for(spec, duration=900.0, seed=4)
        trace = MobilePCWorkload(params).requests()
        before = run_fixed_horizon(spec, trace, 700.0).as_dict()
        # Interleave heavy workload-generator activity...
        for name in SHAPE_NAMES:
            take(make_shape(name, ShapeParams(total_sectors=SECTORS, seed=3)),
                 500)
        # ...and replay again: bit-identical.
        after = run_fixed_horizon(spec, trace, 700.0).as_dict()
        assert before == after


class TestWellFormedness:
    @pytest.mark.parametrize("name", SHAPE_NAMES)
    def test_streams_are_valid_requests(self, name):
        params = ShapeParams(total_sectors=SECTORS, seed=5)
        previous = 0.0
        for request in take(make_shape(name, params), 1000):
            assert request.time >= previous     # arrivals are monotone
            previous = request.time
            assert 0 <= request.lba < SECTORS
            assert 1 <= request.sectors <= params.request_sectors
            assert request.end_lba <= SECTORS

    def test_requests_materializer_bounds_duration(self):
        shape = make_shape("uniform", ShapeParams(total_sectors=SECTORS,
                                                  rate=10.0, seed=1))
        trace = shape.requests(60.0)
        assert trace
        assert all(r.time < 60.0 for r in trace)

    def test_read_fraction_changes_ops_not_lbas(self):
        writes = ShapeParams(total_sectors=SECTORS, seed=8)
        mixed = ShapeParams(total_sectors=SECTORS, seed=8, read_fraction=0.5)
        a = take(make_shape("hotspot", writes), 400)
        b = take(make_shape("hotspot", mixed), 400)
        assert [r.lba for r in a] == [r.lba for r in b]
        assert [r.time for r in a] == [r.time for r in b]
        assert all(r.op is Op.WRITE for r in a)
        assert any(r.op is Op.READ for r in b)

    def test_mixed_defaults_to_half_reads(self):
        shape = make_shape("mixed", ShapeParams(total_sectors=SECTORS, seed=2))
        assert shape.params.read_fraction == 0.5
        explicit = make_shape(
            "mixed",
            ShapeParams(total_sectors=SECTORS, seed=2, read_fraction=0.1),
        )
        assert explicit.params.read_fraction == 0.1

    def test_sequential_is_circular_and_in_order(self):
        params = ShapeParams(total_sectors=64, request_sectors=8, seed=1)
        shape = SequentialStreamWorkload(params)
        lbas = [r.lba for r in take(shape, 16)]
        assert lbas == [0, 8, 16, 24, 32, 40, 48, 56] * 2

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown workload shape"):
            make_shape("nope", ShapeParams(total_sectors=SECTORS))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ShapeParams(total_sectors=0)
        with pytest.raises(ValueError):
            ShapeParams(total_sectors=10, rate=0.0)
        with pytest.raises(ValueError):
            ShapeParams(total_sectors=10, read_fraction=1.0)
        with pytest.raises(ValueError):
            make_shape("phase", ShapeParams(total_sectors=10), period=0.0)
        with pytest.raises(ValueError):
            make_shape("hotspot", ShapeParams(total_sectors=10), theta=0.0)


class TestFiniteOutputIsATrace:
    @pytest.mark.parametrize("name", SHAPE_NAMES)
    def test_shape_requests_are_the_stream_prefix(self, name):
        shape = make_shape(name, ShapeParams(total_sectors=SECTORS, rate=10.0,
                                             seed=3))
        trace = shape.requests(120.0)
        assert type(trace) is Trace
        prefix = []
        for request in shape.iter_requests():
            if request.time >= 120.0:
                break
            prefix.append(request)
        assert len(trace) == len(prefix) > 0
        assert list(trace) == prefix

    def test_prefill_is_one_sequential_pass_per_extent(self):
        workload = MobilePCWorkload(
            WorkloadParams(total_sectors=65_536, duration=600.0, seed=2))
        image = workload.prefill_requests()
        assert type(image) is Trace
        expected = [
            Request(0.0, Op.WRITE, lba,
                    min(MAX_REQUEST_SECTORS, extent.start + extent.length - lba))
            for extent in sorted(workload.extents, key=lambda e: e.start)
            for lba in range(extent.start, extent.start + extent.length,
                             MAX_REQUEST_SECTORS)
        ]
        assert list(image) == expected


class TestHotspotSkew:
    def test_theta_concentrates_traffic(self):
        params = ShapeParams(total_sectors=SECTORS, seed=6)
        skewed = take(make_shape("hotspot", params, theta=0.99), 2000)
        flat = take(make_shape("uniform", params), 2000)

        def top_chunk_share(requests):
            counts: dict[int, int] = {}
            for request in requests:
                counts[request.lba // 8] = counts.get(request.lba // 8, 0) + 1
            return max(counts.values()) / len(requests)

        assert top_chunk_share(skewed) > 3 * top_chunk_share(flat)


class TestPhaseShifting:
    def test_hot_set_migrates_between_phases(self):
        params = ShapeParams(total_sectors=SECTORS, rate=50.0, seed=11)
        shape = PhaseShiftingWorkload(params, period=100.0)

        def hot_chunks(lo, hi):
            counts: dict[int, int] = {}
            for request in shape.requests(hi):
                if lo <= request.time < hi:
                    chunk = request.lba // params.request_sectors
                    counts[chunk] = counts.get(chunk, 0) + 1
            top = sorted(counts, key=counts.get, reverse=True)
            return set(top[:5])

        first = hot_chunks(0.0, 100.0)
        second = hot_chunks(100.0, 200.0)
        assert first != second

    def test_phase_is_pure_function_of_time(self):
        # Identical (seed, time) prefix ⇒ identical stream, regardless
        # of how much of the stream was consumed before.
        params = ShapeParams(total_sectors=SECTORS, seed=12)
        shape = PhaseShiftingWorkload(params, period=50.0)
        long = shape.requests(300.0)
        short = shape.requests(150.0)
        assert long[: len(short)] == short
