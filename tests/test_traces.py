"""Tests for the trace model, generator, resampler, I/O, and statistics."""

from __future__ import annotations

import copy
import pickle
import tracemalloc
from array import array
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt.runner import trace_digest
from repro.traces.extend import SegmentResampler
from repro.traces.generator import (
    DAY,
    MONTH,
    MobilePCWorkload,
    Temperature,
    WorkloadParams,
)
from repro.traces.io import (
    load_trace,
    save_trace,
    save_trace_binary,
    save_trace_csv,
)
from repro.traces.model import Op, Request, Trace
from repro.traces.stats import sequentiality, summarize
from repro.util.rng import make_rng


def small_params(**overrides):
    defaults = dict(total_sectors=131_072, duration=4 * 3600.0, seed=11)
    defaults.update(overrides)
    return WorkloadParams(**defaults)


class TestRequestModel:
    def test_fields(self):
        request = Request(1.0, Op.WRITE, 100, 8)
        assert request.end_lba == 108
        assert request.is_write()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time": -1.0},
            {"lba": -5},
            {"sectors": 0},
            {"time": float("nan")},
            {"time": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        fields = dict(time=0.0, op=Op.READ, lba=0, sectors=1)
        fields.update(kwargs)
        with pytest.raises(ValueError):
            Request(**fields)


def columns(times=(0.0, 1.0), ops=(0, 1), lbas=(0, 8), sectors=(8, 8)):
    return array("d", times), bytearray(ops), array("q", lbas), array("q", sectors)


class TestTraceColumns:
    def test_is_a_sequence_of_validated_requests(self):
        trace = Trace(*columns())
        assert len(trace) == 2 and trace.time_ordered
        assert trace[0] == Request(0.0, Op.READ, 0, 8)
        assert trace[-1] == Request(1.0, Op.WRITE, 8, 8)
        assert type(trace[1:]) is Trace and trace[1:] == [trace[1]]
        assert trace == list(trace) and list(trace) == trace
        assert trace != list(trace)[:1] and trace != 7
        assert trace[1] in trace and trace.index(trace[1]) == 1
        with pytest.raises(IndexError):
            trace[2]

    @pytest.mark.parametrize(
        "bad",
        [
            {"times": (-1.0, 1.0)},
            {"times": (0.0, float("nan"))},
            {"times": (0.0, float("inf"))},
            # Out of order, so the ends do not bound the column:
            {"times": (5.0, float("nan"), 1.0, 2.0), "ops": (0,) * 4,
             "lbas": (0,) * 4, "sectors": (1,) * 4},
            {"times": (5.0, float("inf"), 1.0, 2.0), "ops": (0,) * 4,
             "lbas": (0,) * 4, "sectors": (1,) * 4},
            {"times": (float("nan"),), "ops": (0,), "lbas": (0,), "sectors": (1,)},
            {"ops": (0, 2)},
            {"lbas": (0, -8)},
            {"sectors": (8, 0)},
            {"sectors": (8,)},
        ],
    )
    def test_rejects_per_column_what_request_rejects(self, bad):
        with pytest.raises(ValueError):
            Trace(*columns(**bad))

    def test_time_ordered_is_recorded_not_enforced(self):
        assert not Trace(*columns(times=(2.0, 1.0))).time_ordered
        assert Trace(*columns())[::-1].time_ordered is False
        assert Trace(*columns(times=(1.0, 1.0))).time_ordered
        assert Trace.from_requests([]).time_ordered


class TestWorkloadParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"total_sectors": 0},
            {"duration": 0},
            {"written_fraction": 0.0},
            {"written_fraction": 1.5},
            {"hot_fraction": 0.0},
            {"static_fraction": 1.0},
            {"hot_fraction": 0.5, "static_fraction": 0.5},
            {"hot_write_share": 1.5},
            {"write_rate": 0},
            {"cold_write_period": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            small_params(**kwargs)


class TestLayout:
    def test_extents_do_not_overlap(self):
        workload = MobilePCWorkload(small_params())
        spans = sorted((e.start, e.start + e.length) for e in workload.extents)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end

    def test_written_fraction_hit(self):
        params = small_params()
        workload = MobilePCWorkload(params)
        fraction = workload.written_sectors() / params.total_sectors
        assert fraction == pytest.approx(params.written_fraction, rel=0.02)

    def test_temperature_shares(self):
        params = small_params()
        workload = MobilePCWorkload(params)
        by_temp = workload.sectors_by_temperature()
        written = workload.written_sectors()
        assert by_temp[Temperature.HOT] / written == pytest.approx(
            params.hot_fraction, abs=0.05
        )
        assert by_temp[Temperature.STATIC] / written == pytest.approx(
            params.static_fraction, abs=0.05
        )

    def test_deterministic_from_seed(self):
        first = MobilePCWorkload(small_params()).requests()
        second = MobilePCWorkload(small_params()).requests()
        assert first == second

    def test_different_seeds_differ(self):
        first = MobilePCWorkload(small_params(seed=1)).requests()
        second = MobilePCWorkload(small_params(seed=2)).requests()
        assert first != second


#: (parameters, requests, trace_digest) recorded at 752a69a, when
#: ``requests()`` still built the trace an object at a time through
#: ``_make_write`` / ``_make_read`` / ``_extent_rewrite``.
PINNED_TRACES = {
    # bench/workloads.py's base trace (BASE_TRACE_SEED, 256 blocks)
    "bench": (dict(total_sectors=124_416, duration=DAY, seed=20070604), 327_075,
              "3ca7b77d142f09af036afa993a9790e35c562db566bed2dcdcf83a4a418a3cc4"),
    # 151 requests belong to scheduled static rewrites
    "static_rewrites": (dict(total_sectors=131_072, duration=4 * 3600.0, seed=11,
                             cold_write_period=600.0), 57_547,
              "d4a0690f66872b6a2ba01757e4f12054ea7388fc7cc02a8b0f63a75858561f01"),
    # no hot extent is carved (hot target 0): the smallest one is relabelled
    "hot_relabel": (dict(total_sectors=2048, duration=2 * 3600.0, seed=5,
                         hot_fraction=0.001, cold_write_period=1800.0), 27_512,
              "131c44a5a71180a9ae1197775e176dd12bd823bcb32978af6b1644dfe86228a6"),
    # no warm extent: non-hot writes fall back to the hot pool
    "no_warm": (dict(total_sectors=2048, duration=3600.0, seed=1), 13_742,
              "ae642525079369a8c2208484b2e808e1a6836ce1cc1b7b7110ce7048ae0cb35a"),
    "defaults": (dict(total_sectors=65_536, duration=3600.0, seed=1), 13_531,
              "d052bd41e0b05ef38f091b7166c5e61dd8affbc49ca7cbf3b1ce47258d85e4de"),
}


class TestGeneratedTrace:
    @pytest.mark.parametrize("name", PINNED_TRACES)
    def test_same_trace_as_the_per_object_generator(self, name):
        kwargs, length, digest = PINNED_TRACES[name]
        trace = MobilePCWorkload(WorkloadParams(**kwargs)).requests()
        assert type(trace) is Trace and trace.time_ordered
        assert len(trace) == length
        assert trace_digest(trace) == digest

    def test_stays_columnar(self):
        # A return to one object per request (~150 bytes each, and a
        # pickle that walks them) should fail here, not in a bench run.
        workload = MobilePCWorkload(small_params(duration=6 * 3600.0))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            trace = workload.requests()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) > 50_000
        assert retained < 48 * len(trace)
        assert len(pickle.dumps(trace)) < 40 * len(trace)


class TestRequestStream:
    def test_time_ordered(self):
        trace = MobilePCWorkload(small_params()).requests()
        times = [request.time for request in trace]
        assert times == sorted(times)

    def test_all_requests_inside_address_space(self):
        params = small_params()
        trace = MobilePCWorkload(params).requests()
        assert all(request.end_lba <= params.total_sectors for request in trace)

    def test_rates_match_paper(self):
        params = small_params(duration=12 * 3600.0)
        summary = summarize(MobilePCWorkload(params).requests(), params.total_sectors)
        assert summary.write_rate == pytest.approx(1.82, rel=0.15)
        assert summary.read_rate == pytest.approx(1.97, rel=0.15)

    def test_writes_avoid_static_extents_except_rewrites(self):
        params = small_params(cold_write_period=1e12)  # no static rewrites
        workload = MobilePCWorkload(params)
        static_spans = [
            (e.start, e.start + e.length)
            for e in workload.extents
            if e.temperature is Temperature.STATIC
        ]
        for request in workload.requests():
            if not request.is_write():
                continue
            for start, end in static_spans:
                assert not (start <= request.lba < end)

    def test_static_rewrites_present_with_short_period(self):
        params = small_params(cold_write_period=600.0)  # rewrite every 10 min
        workload = MobilePCWorkload(params)
        static_lbas = {
            e.start for e in workload.extents if e.temperature is Temperature.STATIC
        }
        hits = sum(
            1
            for request in workload.requests()
            if request.is_write() and request.lba in static_lbas
        )
        assert hits > 0

    def test_prefill_covers_every_extent(self):
        workload = MobilePCWorkload(small_params())
        image = workload.prefill_requests()
        assert all(request.time == 0.0 for request in image)
        covered = set()
        for request in image:
            covered.update(range(request.lba, request.end_lba))
        for extent in workload.extents:
            assert extent.start in covered
            assert extent.start + extent.length - 1 in covered
        assert len(covered) == workload.written_sectors()


class TestSegmentResampler:
    def test_monotonic_clock(self):
        base = MobilePCWorkload(small_params()).requests()
        resampler = SegmentResampler(base, rng=make_rng(1))
        stream = resampler.iter_requests()
        out = [next(stream) for _ in range(3000)]
        times = [request.time for request in out]
        assert times == sorted(times)

    def test_segments_advance_clock(self):
        base = MobilePCWorkload(small_params()).requests()
        resampler = SegmentResampler(base, segment=600.0, rng=make_rng(2))
        stream = resampler.iter_requests()
        for _ in range(5000):
            next(stream)
        assert resampler.segments_emitted >= 1

    def test_requests_come_from_base(self):
        base = MobilePCWorkload(small_params()).requests()
        keys = {(request.op, request.lba, request.sectors) for request in base}
        resampler = SegmentResampler(base, rng=make_rng(3))
        stream = resampler.iter_requests()
        for _ in range(1000):
            request = next(stream)
            assert (request.op, request.lba, request.sectors) in keys

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SegmentResampler([])

    def test_short_base_rejected(self):
        base = [Request(0.0, Op.READ, 0), Request(1.0, Op.READ, 0)]
        with pytest.raises(ValueError, match="shorter"):
            SegmentResampler(base, segment=600.0)

    def test_unsorted_base_rejected(self):
        base = [Request(5.0, Op.READ, 0), Request(1.0, Op.READ, 0)]
        with pytest.raises(ValueError, match="time-ordered"):
            SegmentResampler(base)

    def test_a_trace_base_is_rejected_with_the_same_messages(self):
        for times, message in (
            ((), "empty"), ((0.0, 1.0), "shorter"), ((5.0, 1.0), "time-ordered")
        ):
            n = len(times)
            base = Trace(*columns(times, (0,) * n, (0,) * n, (1,) * n))
            with pytest.raises(ValueError, match=message):
                SegmentResampler(base, segment=600.0)

    def test_deterministic(self):
        base = MobilePCWorkload(small_params()).requests()
        def first_n(seed):
            stream = SegmentResampler(base, rng=make_rng(seed)).iter_requests()
            return [next(stream) for _ in range(200)]
        assert first_n(9) == first_n(9)
        assert first_n(9) != first_n(10)


class TestTraceIO:
    def _sample(self):
        return [
            Request(0.0, Op.WRITE, 0, 8),
            Request(1.5, Op.READ, 123456, 1),
            Request(2.25, Op.WRITE, 2**40, 256),
        ]

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "trace.csv"
        assert save_trace_csv(path, self._sample()) == 3
        assert load_trace(path) == self._sample()

    def test_binary_roundtrip(self, tmp_path):
        path = tmp_path / "trace.bin"
        assert save_trace_binary(path, self._sample()) == 3
        assert load_trace(path) == self._sample()

    def test_dispatch_by_extension(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        bin_path = tmp_path / "t.trace"
        save_trace(csv_path, self._sample())
        save_trace(bin_path, self._sample())
        assert csv_path.read_text().startswith("time,op,lba,sectors")
        assert bin_path.read_bytes()[:4] == b"FTRC"

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not a trace CSV"):
            load_trace(path)

    def test_csv_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,op,lba,sectors\n1.0,W,nope,1\n")
        with pytest.raises(ValueError, match="malformed"):
            load_trace(path)

    def test_binary_truncated(self, tmp_path):
        path = tmp_path / "t.bin"
        save_trace_binary(path, self._sample())
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(ValueError, match="truncated"):
            load_trace(path)

    def test_binary_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.bin"
        save_trace_binary(path, self._sample())
        path.write_bytes(path.read_bytes() + bytes(24))
        with pytest.raises(ValueError, match="bytes remain"):
            load_trace(path)

    def test_csv_non_finite_time_names_the_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,op,lba,sectors\n0.0,W,0,8\nnan,W,8,8\n"
                        "700.0,R,0,8\ninf,R,8,8\n")
        with pytest.raises(ValueError, match=r"t\.csv:3: malformed"):
            load_trace(path)
        path.write_text("time,op,lba,sectors\n0.0,W,0,8\n700.0,R,0,8\ninf,R,8,8\n")
        with pytest.raises(ValueError, match=r"t\.csv:4: malformed"):
            load_trace(path)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            load_trace(path)

    def test_binary_roundtrips_generated_trace(self, tmp_path):
        trace = MobilePCWorkload(small_params(duration=1800.0)).requests()
        path = tmp_path / "t.bin"
        save_trace(path, trace)
        assert load_trace(path) == trace

    def test_csv_roundtrips_generated_trace(self, tmp_path):
        # Six decimals used to come back: 0.18599698750453464 -> 0.185997.
        trace = MobilePCWorkload(small_params(duration=1800.0)).requests()
        path = tmp_path / "t.csv"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert loaded == trace
        assert trace_digest(loaded) == trace_digest(trace)


class TestStats:
    def test_summarize_counts(self):
        trace = [
            Request(0.0, Op.WRITE, 0, 4),
            Request(5.0, Op.READ, 0, 2),
            Request(10.0, Op.WRITE, 2, 4),  # overlaps the first write
        ]
        summary = summarize(trace, total_sectors=100)
        assert summary.num_writes == 2
        assert summary.num_reads == 1
        assert summary.total_sectors_written == 8
        assert summary.written_lba_fraction == pytest.approx(0.06)  # union [0,6)
        assert summary.duration == pytest.approx(10.0)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([], 10)

    def test_written_fraction_on_generated_trace(self):
        params = small_params(duration=8 * 3600.0)
        workload = MobilePCWorkload(params)
        trace = workload.prefill_requests() + workload.requests()
        summary = summarize(trace, params.total_sectors)
        assert summary.written_lba_fraction == pytest.approx(0.3662, abs=0.01)

    def test_sequentiality(self):
        seq = [Request(0.0, Op.WRITE, 0, 8), Request(1.0, Op.WRITE, 8, 8)]
        rand = [Request(0.0, Op.WRITE, 0, 8), Request(1.0, Op.WRITE, 100, 8)]
        assert sequentiality(seq) == 1.0
        assert sequentiality(rand) == 0.0
        assert sequentiality([]) == 0.0

    def test_sequentiality_window_catches_interleaved_streams(self):
        # Two interleaved sequential streams: invisible at window=1,
        # fully sequential at window=2.
        interleaved = [
            Request(0.0, Op.WRITE, 0, 8),
            Request(1.0, Op.WRITE, 1000, 8),
            Request(2.0, Op.WRITE, 8, 8),
            Request(3.0, Op.WRITE, 1008, 8),
            Request(4.0, Op.WRITE, 16, 8),
        ]
        assert sequentiality(interleaved, window=1) == 0.0
        assert sequentiality(interleaved, window=2) == pytest.approx(3 / 4)

    def test_sequentiality_window_validation(self):
        with pytest.raises(ValueError):
            sequentiality([], window=0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_generated_trace_is_always_well_formed(seed):
    params = small_params(duration=1800.0, seed=seed)
    trace = MobilePCWorkload(params).requests()
    last_time = 0.0
    for request in trace:
        assert request.time >= last_time
        last_time = request.time
        assert 0 <= request.lba < params.total_sectors
        assert request.end_lba <= params.total_sectors


def per_object_segments(base, segment, rng, count):
    """The resampler's loop as it ran over a list of ``Request`` objects."""
    times = [request.time for request in base]
    for emitted in range(count):
        clock = emitted * segment
        start = rng.uniform(0.0, times[-1] - segment)
        lo = bisect_left(times, start)
        hi = bisect_left(times, start + segment)
        yield [
            Request(clock + (request.time - start), request.op,
                    request.lba, request.sectors)
            for request in base[lo:hi]
        ]


# LBA and sector bounds are the binary record's (<Q and <I) cut to what
# the signed columns hold.
valid_requests = st.builds(
    Request,
    time=st.floats(0.0, 1e12),
    op=st.sampled_from(Op),
    lba=st.integers(0, 2**63 - 1),
    sectors=st.integers(1, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(xs=st.lists(valid_requests, max_size=30), cut=st.slices(30),
       seed=st.integers(0, 2**32))
def test_a_trace_is_interchangeable_with_its_request_list(
    xs, cut, seed, tmp_path_factory
):
    trace = Trace.from_requests(xs)
    assert Trace.from_requests(trace) is trace
    assert trace == xs and xs == trace and list(trace) == xs
    assert len(trace) == len(xs) and list(reversed(trace)) == xs[::-1]
    assert type(trace[cut]) is Trace and trace[cut] == xs[cut]
    assert type(xs + trace) is Trace and xs + trace == xs + xs == trace + xs
    assert trace_digest(trace) == trace_digest(xs)
    assert trace.time_ordered == (xs == sorted(xs, key=lambda r: r.time))
    assert pickle.loads(pickle.dumps(trace)) == xs

    directory = tmp_path_factory.getbasetemp()
    for name in ("interchangeable.bin", "interchangeable.csv"):
        assert save_trace(directory / name, trace) == len(xs)
        assert load_trace(directory / name) == xs

    ordered = sorted(xs, key=lambda r: r.time)
    segment = ordered[-1].time / 2 if ordered else 0.0
    if segment == 0.0:  # nothing to resample: empty, or all at time zero
        return
    from_list = SegmentResampler(ordered, segment=segment, rng=make_rng(seed))
    from_trace = SegmentResampler(
        Trace.from_requests(ordered), segment=segment, rng=make_rng(seed))
    for expected in per_object_segments(ordered, segment, make_rng(seed), 4):
        assert from_list.next_segment() == expected
        assert from_trace.next_segment() == expected
    assert from_list.snapshot_state() == from_trace.snapshot_state()


@settings(max_examples=60, deadline=None)
@given(request=valid_requests)
def test_a_request_is_one_row_however_it_is_built(request):
    row = tuple(request)
    trace = Trace.from_requests([request])
    for built in (Request(*row), trace[0], next(iter(trace))):
        assert type(built) is Request
        assert built == request == row and hash(built) == hash(row)
        for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
            assert type(copied) is Request and copied == request


class TestRequestTuple:
    def test_repr_keeps_the_dataclass_spelling(self):
        assert (repr(Request(1.5, Op.WRITE, 100, 8))
                == "Request(time=1.5, op=<Op.WRITE: 'W'>, lba=100, sectors=8)")

    def test_is_a_four_tuple_with_a_default_size(self):
        request = Request(2.0, Op.READ, 7)
        assert request == (2.0, Op.READ, 7, 1)
        assert request._replace(sectors=3) == Request(2.0, Op.READ, 7, 3)
        with pytest.raises(ValueError):
            request._replace(lba=-1)

    @pytest.mark.parametrize("row", [
        (-1.0, Op.READ, 0, 1),
        (float("nan"), Op.READ, 0, 1),
        (0.0, Op.WRITE, -5, 1),
        (0.0, Op.WRITE, 0, 0),
    ])
    def test_a_forged_row_is_refused_on_unpickle(self, row):
        forged = tuple.__new__(Request, row)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            with pytest.raises(ValueError):
                pickle.loads(pickle.dumps(forged, protocol))
        with pytest.raises(ValueError):
            copy.deepcopy(forged)
