"""Property tests pinning the word-level hot path to its O(n) references.

The hot-path rewrite (word-level :class:`~repro.util.bitarray.BitArray`,
incremental :class:`~repro.sim.metrics.WearAccumulator`, O(bins) heatmap
snapshots) must be observationally identical to the straightforward
implementations it replaced.  Each property here drives a random workload
through both the new code and a reference derivation — the historical
bit-by-bit ``bytearray`` bit array, ``EraseDistribution.from_counts``,
``WearHeatmap.from_counts`` — and asserts exact equality, including the
floating-point fields (the accounting is designed to be bit-identical,
not merely close; see DESIGN.md, hot-path accounting invariants).
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from functools import partial
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.array import DeviceArray, build_array
from repro.core.bet import BlockErasingTable
from repro.core.config import SWLConfig
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.flash.chip import PAGE_FREE, PAGE_INVALID, PAGE_VALID, NandFlash
from repro.flash.errors import (
    AddressError,
    FlashError,
    OutOfSpaceError,
    PowerLossError,
    ProgramError,
    ProgramFaultError,
    TranslationError,
)
from repro.flash.geometry import CellType, FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.factory import build_stack, make_layer
from repro.obs.bus import EventBus
from repro.obs.export import JsonlTraceExporter
from repro.obs.heatmap import WearHeatmap
from repro.obs.telemetry import Telemetry
from repro.util.rng import make_rng
from repro.sim.metrics import EraseDistribution, WearAccumulator
from repro.util.bitarray import BitArray


class ReferenceBitArray:
    """The historical bit-by-bit implementation, kept as the test oracle.

    Mirrors the pre-rewrite ``bytearray`` backing store: bit ``i`` lives
    in byte ``i >> 3`` at position ``i & 7``, every query walks bits in
    Python.  Deliberately naive — its only job is to be obviously
    correct.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._bytes = bytearray((size + 7) // 8)

    def __getitem__(self, index: int) -> bool:
        return bool(self._bytes[index >> 3] & (1 << (index & 7)))

    def set(self, index: int) -> bool:
        byte, bit = index >> 3, 1 << (index & 7)
        if self._bytes[byte] & bit:
            return False
        self._bytes[byte] |= bit
        return True

    def clear(self, index: int) -> bool:
        byte, bit = index >> 3, 1 << (index & 7)
        if not self._bytes[byte] & bit:
            return False
        self._bytes[byte] &= ~bit
        return True

    def fill(self) -> None:
        for index in range(self.size):
            self.set(index)

    def reset(self) -> None:
        self._bytes = bytearray(len(self._bytes))

    def popcount(self) -> int:
        return sum(1 for i in range(self.size) if self[i])

    def all_set(self) -> bool:
        return self.popcount() == self.size

    def any_set(self) -> bool:
        return any(self._bytes)

    def next_zero(self, start: int) -> int | None:
        for offset in range(self.size):
            index = (start + offset) % self.size
            if not self[index]:
                return index
        return None

    def zero_indices(self) -> list[int]:
        return [i for i in range(self.size) if not self[i]]

    def to_bytes(self) -> bytes:
        return bytes(self._bytes)


# Weighted op alphabet for random sequences: mutations and queries mixed.
_OPS = ("set", "set", "set", "clear", "clear", "fill", "reset",
        "next_zero", "popcount", "zero_indices", "roundtrip")


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
       steps=st.integers(1, 120))
def test_random_op_sequence_matches_reference(size, seed, steps):
    """Every observable of the word-level array equals the bit-by-bit
    oracle after each step of a random operation sequence."""
    rng = random.Random(seed)
    fast = BitArray(size)
    slow = ReferenceBitArray(size)
    for _ in range(steps):
        op = rng.choice(_OPS)
        if op in ("set", "clear"):
            index = rng.randrange(size)
            assert getattr(fast, op)(index) == getattr(slow, op)(index)
        elif op in ("fill", "reset"):
            getattr(fast, op)()
            getattr(slow, op)()
        elif op == "next_zero":
            start = rng.randrange(size)
            assert fast.next_zero(start) == slow.next_zero(start)
        elif op == "popcount":
            assert fast.popcount() == slow.popcount()
        elif op == "zero_indices":
            assert fast.zero_indices() == slow.zero_indices()
        else:  # roundtrip
            assert fast.to_bytes() == slow.to_bytes()
            assert BitArray.from_bytes(fast.to_bytes(), size) == fast
        # Invariants that must hold after every operation.
        assert fast.popcount() == slow.popcount()
        assert fast.all_set() == slow.all_set()
        assert fast.any_set() == slow.any_set()
    assert list(fast) == [slow[i] for i in range(size)]
    assert fast.to_bytes() == slow.to_bytes()


@given(size=st.integers(1, 128))
def test_fill_keeps_tail_byte_masked(size):
    """``fill`` must never set padding bits beyond ``size`` — serialized
    images with dirty padding are rejected as corrupt."""
    bits = BitArray(size)
    bits.fill()
    data = bits.to_bytes()
    assert len(data) == (size + 7) // 8
    tail_bits = size & 7
    if tail_bits:
        assert data[-1] >> tail_bits == 0
    # A filled image must round-trip (its own padding is clean).
    assert BitArray.from_bytes(data, size).all_set()


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 128), seed=st.integers(0, 2**32 - 1))
def test_from_bytes_rejects_any_padding_corruption(size, seed):
    """Flipping any padding bit of a valid image raises; flipping any
    in-range bit yields a valid image with that one bit changed."""
    rng = random.Random(seed)
    bits = BitArray(size)
    for index in range(size):
        if rng.random() < 0.5:
            bits.set(index)
    image = bytearray(bits.to_bytes())
    nbits = len(image) * 8
    flip = rng.randrange(nbits)
    image[flip >> 3] ^= 1 << (flip & 7)
    if flip >= size:
        with pytest.raises(ValueError, match="padding"):
            BitArray.from_bytes(bytes(image), size)
    else:
        restored = BitArray.from_bytes(bytes(image), size)
        assert restored[flip] != bits[flip]
        assert sum(a != b for a, b in zip(restored, bits)) == 1


@given(size=st.integers(1, 64), extra=st.integers(-2, 2).filter(bool))
def test_from_bytes_rejects_wrong_length(size, extra):
    good = BitArray(size).to_bytes()
    bad = good + b"\x00" * extra if extra > 0 else good[:extra]
    with pytest.raises(ValueError, match="expected"):
        BitArray.from_bytes(bad, size)


# ----------------------------------------------------------------------
# Incremental wear accounting vs the one-shot reference
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(blocks=st.integers(1, 96), seed=st.integers(0, 2**32 - 1),
       erases=st.integers(0, 400))
def test_accumulator_matches_from_counts_exactly(blocks, seed, erases):
    """After any erase sequence the O(1) snapshot equals the O(n)
    reference on every field — floats compared with ``==``, not approx."""
    rng = random.Random(seed)
    counts = [0] * blocks
    wear = WearAccumulator(blocks)
    for _ in range(erases):
        block = rng.randrange(blocks)
        wear.record_erase(block, counts[block])
        counts[block] += 1
    incremental = wear.distribution()
    reference = EraseDistribution.from_counts(counts)
    assert incremental == reference
    assert incremental.average == reference.average
    assert incremental.deviation == reference.deviation
    assert incremental.minimum == min(counts)
    assert incremental.maximum == max(counts)


@settings(max_examples=40, deadline=None)
@given(shards=st.integers(2, 5), blocks=st.integers(1, 48),
       seed=st.integers(0, 2**32 - 1))
def test_shard_merge_matches_concatenated_from_counts(shards, blocks, seed):
    """The array path — per-shard accumulators merged — equals a single
    ``from_counts`` over the concatenated counts, bit for bit."""
    rng = random.Random(seed)
    all_counts: list[int] = []
    parts: list[EraseDistribution] = []
    for _ in range(shards):
        counts = [0] * blocks
        wear = WearAccumulator(blocks)
        for _ in range(rng.randrange(200)):
            block = rng.randrange(blocks)
            wear.record_erase(block, counts[block])
            counts[block] += 1
        all_counts.extend(counts)
        parts.append(wear.distribution())
    assert EraseDistribution.merge(parts) == \
        EraseDistribution.from_counts(all_counts)


@settings(max_examples=60, deadline=None)
@given(blocks=st.integers(1, 96), bins=st.integers(1, 32),
       seed=st.integers(0, 2**32 - 1))
def test_bin_sums_heatmap_matches_from_counts(blocks, bins, seed):
    """O(bins) heatmaps from incremental bin sums equal the O(n) scan,
    including the short last cell when bins do not divide blocks."""
    rng = random.Random(seed)
    counts = [0] * blocks
    wear = WearAccumulator(blocks)
    width = max(1, -(-blocks // bins))
    wear.ensure_bins(width, counts)
    for _ in range(rng.randrange(300)):
        block = rng.randrange(blocks)
        wear.record_erase(block, counts[block])
        counts[block] += 1
    fast = WearHeatmap.from_bin_sums(
        1.0,
        num_blocks=blocks,
        bin_width=width,
        bin_sums=wear.bin_sums,
        min_count=wear.minimum,
        max_count=wear.maximum,
        total_erases=wear.total,
    )
    assert fast == WearHeatmap.from_counts(1.0, counts, bins=bins)


def test_ensure_bins_mid_run_rebuild_is_exact():
    """Re-shaping the bins mid-run rebuilds from live counts, so sums
    stay exact across a heatmap-width reconfiguration."""
    counts = [0] * 10
    wear = WearAccumulator(10)
    rng = random.Random(3)
    for _ in range(50):
        block = rng.randrange(10)
        wear.record_erase(block, counts[block])
        counts[block] += 1
    wear.ensure_bins(3, counts)          # first shape: 4 bins, tail of 1
    assert wear.bin_sums == [sum(counts[i:i + 3]) for i in range(0, 10, 3)]
    for _ in range(50):
        block = rng.randrange(10)
        wear.record_erase(block, counts[block])
        counts[block] += 1
    assert wear.bin_sums == [sum(counts[i:i + 3]) for i in range(0, 10, 3)]
    wear.ensure_bins(4, counts)          # reshape: rebuilds exactly
    assert wear.bin_sums == [sum(counts[i:i + 4]) for i in range(0, 10, 4)]


# ----------------------------------------------------------------------
# BET over the word-level array, including k > 0 short-tail sets
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(num_blocks=st.integers(1, 80), k=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_bet_counters_and_scan_with_short_tail_sets(num_blocks, k, seed):
    """BET behaviour over the new bit array for every (num_blocks, k)
    shape, in particular when ``2^k`` does not divide ``num_blocks`` and
    the last flag covers a short tail set."""
    if (1 << k) > num_blocks:
        return  # rejected geometry, covered by test_bet.py
    rng = random.Random(seed)
    bet = BlockErasingTable(num_blocks, k)
    flagged: set[int] = set()
    for _ in range(rng.randrange(150)):
        block = rng.randrange(num_blocks)
        flipped = bet.record_erase(block)
        assert flipped == (block >> k not in flagged)
        flagged.add(block >> k)
    assert bet.fcnt == len(flagged)
    assert bet.ecnt >= bet.fcnt
    assert bet.zero_flags() == [i for i in range(bet.size)
                                if i not in flagged]
    # The tail set never reaches past the device.
    tail = bet.blocks_in_set(bet.size - 1)
    assert tail.stop == num_blocks
    assert len(tail) == num_blocks - ((bet.size - 1) << k)
    # Persistence round-trips the flags exactly (fcnt cross-check runs
    # inside from_bytes against the word-level popcount).
    restored, _ = BlockErasingTable.from_bytes(bet.to_bytes())
    assert restored.fcnt == bet.fcnt
    assert restored.zero_flags() == bet.zero_flags()


# ----------------------------------------------------------------------
# Span primitives vs the per-page loop (DESIGN.md 5j)
# ----------------------------------------------------------------------
# Two fresh FTL stacks take the same batches.  One is driven through the
# span entries (``write_pages``/``read_pages``) over a chip free to take
# runs at once; the other page by page (``layer.write``/``layer.read``),
# over a chip forced onto its per-page route by an instance override of
# ``_watched`` — which changes nothing a snapshot holds — and whose
# ``program`` fails the test on a page programmed before its predecessor:
# the FTL fills every block in ascending page order.
SPAN_GEOMETRY = FlashGeometry(
    num_blocks=16, pages_per_block=8, page_size=2048, endurance=50,
    cell_type=CellType.MLC2, name="span-equivalence",
)
#: Logical pages the FTL exports over SPAN_GEOMETRY (11 of 16 blocks).
SPAN_PAGES = 88


@st.composite
def page_batches(draw, pages=SPAN_PAGES, *, edges=False):
    """One host batch: a range, a wrapped list, a single page, or a
    list with repeats — up to five frontier blocks long.  With ``edges``
    also the shapes that leave the logical space or hold nothing: a range
    with an out-of-range tail or a negative start, a list with a bad page
    somewhere in it, an empty range, an empty list and a stepped range."""
    shapes = ("range", "wrapped", "single", "list")
    if edges:
        shapes += ("tail", "negative", "bad-list", "empty", "stepped")
    shape = draw(st.sampled_from(shapes))
    start = draw(st.integers(0, pages - 1))
    if shape == "range":
        return range(start, start + draw(st.integers(1, min(40, pages - start))))
    if shape == "wrapped":
        return [(start + i) % pages for i in range(draw(st.integers(2, 40)))]
    if shape == "single":
        return [start]
    if shape == "tail":
        return range(max(start, pages - 12), pages + draw(st.integers(1, 4)))
    if shape == "negative":
        return range(-draw(st.integers(1, 4)), min(start, 12))
    if shape == "empty":
        return draw(st.sampled_from((range(start, start), range(start, 0), [])))
    if shape == "stepped":
        return range(start, min(pages, start + 40), draw(st.integers(2, 5)))
    lpns = draw(st.lists(st.integers(0, pages - 1), min_size=1, max_size=30))
    if shape == "bad-list":
        lpns.insert(draw(st.integers(0, len(lpns))),
                    draw(st.sampled_from((-1, pages, pages + 9))))
    return lpns


host_batches = st.lists(
    st.tuples(st.sampled_from("wwwr"), page_batches()), min_size=1, max_size=30
)


def edge_batches(pages=SPAN_PAGES):
    """Read-heavy, with the edge shapes: what the FTL's table slice must
    get right."""
    return st.lists(
        st.tuples(st.sampled_from("wrr"), page_batches(pages, edges=True)),
        min_size=1, max_size=30,
    )


#: Devices to start from: full, every other page, the lower half, blank.
PREFILLS = (range(SPAN_PAGES), range(0, SPAN_PAGES, 2), range(SPAN_PAGES // 2),
            range(0))


def force_per_page(flash):
    """Send every span of ``flash`` down the per-page route, as an
    injector or ``store_data`` would, with nothing else attached."""
    flash._watched = lambda: True


def ascending_programs(flash):
    """Fail on a program whose predecessor page is still free."""
    program = flash.program

    def checked(block, page, **kwargs):
        program(block, page, **kwargs)
        assert page == 0 or flash.page_state(block, page - 1) != PAGE_FREE, (
            f"page ({block}, {page}) programmed before page ({block}, {page - 1})"
        )

    flash.program = checked


def span_stack(*, per_page_chip=False, **kwargs):
    stack = build_stack(
        SPAN_GEOMETRY, "ftl", SWLConfig(threshold=2, k=0), rng=make_rng(7), **kwargs
    )
    assert stack.num_logical_pages == SPAN_PAGES
    if per_page_chip:
        force_per_page(stack.flash)
        ascending_programs(stack.flash)
    return stack


def drive(stack, op, lpns, *, batched):
    """``(pages done, error)`` of one batch by either route."""
    if batched:
        entry = stack.write_pages if op == "w" else stack.read_pages
        try:
            return entry(lpns), None
        except FlashError as exc:
            return exc.pages_done, exc
    page_op = stack.layer.write if op == "w" else stack.layer.read
    done = 0
    try:
        for lpn in lpns:
            page_op(lpn)
            done += 1
    except FlashError as exc:
        return done, exc
    return done, None


def observed(stack):
    if stack.mtd._obs is not None:
        stack.mtd._obs.flush()  # a trace stream is current only after a flush
    injector = stack.flash.injector
    return {
        "flash": stack.flash.snapshot_state(),
        "layer": stack.layer.snapshot_state(),
        "stats": stack.layer.stats.as_dict(),
        "busy_time": stack.mtd.busy_time,  # compared with ==, not approx
        "probes": stack.layer.scanner.probes,
        "leveler": stack.leveler.snapshot_state(),
        "injector": None if injector is None else injector.snapshot_state(),
    }


def assert_same_outcome(spans, pages, op, lpns):
    done, error = drive(spans, op, lpns, batched=True)
    expected_done, expected_error = drive(pages, op, lpns, batched=False)
    assert (done, type(error), str(error)) == (
        expected_done, type(expected_error), str(expected_error)
    )
    assert observed(spans) == observed(pages)
    return error


@settings(max_examples=60, deadline=None)
@given(batches=host_batches)
def test_span_entries_match_the_per_page_loop(batches):
    spans, pages = span_stack(), span_stack(per_page_chip=True)
    # A full device first, so the batches below collect garbage, recycle
    # dead blocks, and let the leveler force cold moves.
    assert_same_outcome(spans, pages, "w", range(SPAN_PAGES))
    for op, lpns in batches:
        assert_same_outcome(spans, pages, op, lpns)


def test_span_entries_match_through_gc_recycle_and_cold_moves():
    # A fixed long sequence, so the paths the property above usually
    # reaches are certain to have run.
    rng = random.Random(12)
    spans, pages = span_stack(), span_stack(per_page_chip=True)
    assert_same_outcome(spans, pages, "w", range(SPAN_PAGES))
    for _ in range(150):
        start = rng.randrange(SPAN_PAGES)
        count = rng.randint(1, 40)
        lpns = (
            range(start, min(SPAN_PAGES, start + count)) if rng.random() < 0.5
            else [(start + i * rng.randint(1, 3)) % SPAN_PAGES for i in range(count)]
        )
        assert_same_outcome(spans, pages, rng.choice("wwwr"), lpns)
    stats = spans.layer.stats
    assert min(stats.gc_runs, stats.dead_recycles, stats.forced_recycles,
               stats.live_page_copies, stats.host_reads) > 0


class WrittenPages:
    """Independent oracle for host reads: the set of pages ever written.

    It knows nothing of the translation layer — only that reading a
    written page costs one device read, that an unwritten page costs
    none, that shard ``i`` of ``n`` owns the pages ``lpn % n == i``, and
    that a batch with a bad page in it is served up to that page by a
    stack and refused whole by an array (``atomic``).
    """

    def __init__(self, shards, *, atomic=False):
        self.shards, self.atomic, self.written = shards, atomic, set()

    def check(self, op, lpns, run):
        """``run()`` the batch — it returns the error raised, if any —
        and hold what the batch cost each shard against the model."""
        shards, lpns = self.shards, list(lpns)
        before = [(shard.flash.counters.reads, shard.layer.stats.host_reads,
                   shard.mtd.busy_time) for shard in shards]
        error = run()
        pages = SPAN_PAGES * len(shards)
        bad = [at for at, lpn in enumerate(lpns) if not 0 <= lpn < pages]
        served = lpns if not bad else [] if self.atomic else lpns[:bad[0]]
        assert (error is None) == (not bad)
        if bad:
            assert isinstance(error, TranslationError)
            assert error.pages_done == len(served)
        if op == "w":
            self.written.update(served)
            return
        for index, (shard, (reads, host_reads, busy)) in enumerate(zip(shards, before)):
            mine = [lpn for lpn in served if lpn % len(shards) == index]
            hits = sum(lpn in self.written for lpn in mine)
            assert shard.flash.counters.reads - reads == hits
            assert shard.layer.stats.host_reads - host_reads == len(mine)
            for _ in range(hits):
                busy += shard.mtd.timing.read_page
            assert shard.mtd.busy_time == busy  # the same float additions


@settings(max_examples=60, deadline=None)
@given(batches=edge_batches(), prefill=st.sampled_from(PREFILLS))
def test_reads_of_unmapped_out_of_range_and_empty_spans_match(batches, prefill):
    spans, pages = span_stack(), span_stack(per_page_chip=True)
    model = WrittenPages([spans])
    for op, lpns in [("w", prefill), *batches]:
        model.check(op, lpns, partial(assert_same_outcome, spans, pages, op, lpns))


#: Logical pages of the 4-channel array over SPAN_GEOMETRY.
ARRAY_PAGES = 4 * SPAN_PAGES


def span_array(*, driver="ftl", per_page_chip=False, **kwargs):
    array = build_array(
        SPAN_GEOMETRY, driver, SWLConfig(threshold=2, k=0), channels=4,
        rng=make_rng(7), **kwargs
    )
    assert array.num_logical_pages == ARRAY_PAGES
    if per_page_chip:
        for shard in array.shards:
            force_per_page(shard.flash)
            if driver == "ftl":  # NFTL programs home offsets out of order
                ascending_programs(shard.flash)
    return array


def drive_array(array, op, lpns, route):
    """``(pages done, error)`` of one batch through the compiled
    dispatcher, through the generic buffered one, or page by page."""
    try:
        if route == "compiled":
            entry = array.write_pages if op == "w" else array.read_pages
            return entry(lpns), None
        if route == "buffered":
            entry = DeviceArray.write_pages if op == "w" else DeviceArray.read_pages
            return entry(array, list(lpns)), None
        # Routed whole first: an array validates a span before it
        # touches a shard.
        routed = [array.striping.route(lpn) for lpn in lpns]
        for shard, local in routed:
            layer = array.shards[shard].layer
            (layer.write if op == "w" else layer.read)(local)
        return len(routed), None
    except FlashError as exc:
        return exc.pages_done, exc


@settings(max_examples=40, deadline=None)
@given(
    batches=edge_batches(ARRAY_PAGES),
    prefill=st.sampled_from(
        (range(ARRAY_PAGES), range(0, ARRAY_PAGES, 3), range(0))
    ),
)
def test_array_span_reads_match_the_buffered_and_per_page_routes(batches, prefill):
    assert_array_routes_agree(
        [span_array(), span_array(), span_array(per_page_chip=True)],
        batches, prefill,
    )


def assert_array_routes_agree(arrays, batches, prefill):
    """Compiled dispatch vs the buffered one vs a per-page loop over a
    per-page chip: same pages, errors and shard states, and what the
    :class:`WrittenPages` model says each shard read."""
    compiled, buffered, per_page = arrays
    model = WrittenPages(compiled.shards, atomic=True)

    def run(op, lpns):
        done, error = drive_array(compiled, op, lpns, "compiled")
        assert error is not None or done == len(lpns)
        state = [observed(shard) for shard in compiled.shards]
        for array, route in ((buffered, "buffered"), (per_page, "per-page")):
            other_done, other_error = drive_array(array, op, lpns, route)
            assert (other_done, type(other_error)) == (done, type(error))
            assert [observed(shard) for shard in array.shards] == state
        return error

    for op, lpns in [("w", prefill), *batches]:
        model.check(op, lpns, partial(run, op, lpns))


def traced_bus(stream):
    bus = EventBus()
    bus.subscribe(JsonlTraceExporter(stream))
    return bus


@pytest.mark.parametrize("attach", [
    lambda: {"injector": FaultInjector(FaultPlan(seed=1))},
    lambda: {"store_data": True},
], ids=["injector", "store_data"])
def test_an_attachment_still_sees_every_page_of_a_span_read(attach):
    stack = span_stack(**attach())
    assert stack.flash._watched()
    stack.write_pages(range(0, 20, 2))
    seen = []
    read = stack.flash.read
    stack.flash.read = lambda block, page: seen.append((block, page)) or read(block, page)
    # Written and unwritten pages alternate: the unwritten ones reach no
    # chip but still count as host reads.
    assert stack.read_pages(range(4, 14)) == 10
    assert seen == [stack.layer.mapping_of(lpn) for lpn in range(4, 14, 2)]
    assert stack.layer.stats.host_reads == 10
    assert stack.flash.counters.reads == 5


def test_a_mapping_outside_the_chip_raises_from_the_per_page_loop():
    stack = span_stack()
    stack.write_pages(range(8))
    # Behind the driver's back: page 5 now maps past the last block.
    stack.layer._l2p[5] = SPAN_GEOMETRY.total_pages
    with pytest.raises(AddressError) as caught:
        stack.read_pages(range(2, 8))
    assert caught.value.pages_done == 3
    assert stack.layer.stats.host_reads == 4  # the page in flight was accepted
    assert stack.flash.counters.reads == 3


@settings(max_examples=60, deadline=None)
@given(batches=host_batches, seed=st.integers(0, 2**16),
       loss_at=st.integers(1, 1500))
def test_span_entries_match_the_per_page_loop_under_faults(batches, seed, loss_at):
    plan = FaultPlan(
        seed=seed, program_fail_prob=0.01, erase_fail_prob=0.02,
        power_loss_at=(loss_at,),
    )
    spans = span_stack(injector=FaultInjector(plan))
    pages = span_stack(injector=FaultInjector(plan))
    for op, lpns in [("w", range(SPAN_PAGES)), *batches]:
        error = assert_same_outcome(spans, pages, op, lpns)
        if error is not None:
            # Power loss (or a device worn to end of life): same error,
            # same pages_done, same media and RAM state — checked above.
            assert isinstance(error, (PowerLossError, OutOfSpaceError))
            break


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_payloads_travel_with_relocated_pages(seed):
    spans = span_stack(store_data=True)
    pages = span_stack(store_data=True)
    rng = random.Random(seed)
    assert_same_outcome(spans, pages, "w", range(SPAN_PAGES))
    written: dict[int, bytes] = {}
    for version in range(120):
        # Payload writes only exist page by page; the batches around
        # them relocate those pages through GC and cold moves.
        lpn = rng.randrange(SPAN_PAGES)
        written[lpn] = payload = f"lpn={lpn} v={version}".encode()
        for stack in (spans, pages):
            stack.layer.write(lpn, payload)
        start = rng.randrange(SPAN_PAGES)
        lpns = range(start, min(SPAN_PAGES, start + rng.randint(1, 20)))
        assert_same_outcome(spans, pages, "w", lpns)
        for lpn in lpns:
            written.pop(lpn, None)
    assert spans.layer.stats.live_page_copies > 0 and written
    for lpn, payload in written.items():
        assert spans.layer.read(lpn) == pages.layer.read(lpn) == payload


@settings(max_examples=25, deadline=None)
@given(batches=host_batches)
def test_trace_exporter_sees_the_same_event_stream(batches):
    # Span entries over a flat-route chip, whose MTD emits each span's
    # events itself, against the per-page oracle: byte-equal streams.
    streams = io.StringIO(), io.StringIO()
    spans = span_stack(bus=traced_bus(streams[0]))
    pages = span_stack(per_page_chip=True, bus=traced_bus(streams[1]))
    for op, lpns in [("w", range(SPAN_PAGES)), *batches]:
        assert_same_outcome(spans, pages, op, lpns)
        assert streams[0].getvalue() == streams[1].getvalue()
    assert '"kind": "gc_scan"' in streams[0].getvalue()


@settings(max_examples=25, deadline=None)
@given(batches=host_batches)
def test_array_trace_exporter_sees_the_same_event_stream(batches):
    # Four shards on one bus: shard tags and per-shard clocks, through
    # the compiled dispatcher over flat-route and per-page chips.
    streams = io.StringIO(), io.StringIO()
    arrays = (span_array(bus=traced_bus(streams[0])),
              span_array(per_page_chip=True, bus=traced_bus(streams[1])))
    for op, lpns in [("w", range(ARRAY_PAGES)), *batches]:
        outcomes = []
        for array in arrays:
            done, error = drive_array(array, op, lpns, "compiled")
            outcomes.append((done, type(error),
                             [observed(shard) for shard in array.shards]))
        assert outcomes[0] == outcomes[1]
        assert streams[0].getvalue() == streams[1].getvalue()
    shards = {json.loads(line)["shard"] for line in streams[0].getvalue().splitlines()}
    assert shards == {0, 1, 2, 3}


def test_plain_telemetry_keeps_the_flat_route():
    # The collector reads the chip's counters at flush time and leaves
    # the per-operation mask bits clear.
    telemetry = Telemetry()
    stack = span_stack(bus=telemetry.bus)
    assert not stack.flash._watched()
    stack.write_pages(range(SPAN_PAGES))
    programs = telemetry.snapshot().counters["repro_flash_programs_total"]
    assert programs.value == SPAN_PAGES


def test_a_trace_exporter_keeps_the_flat_route(monkeypatch):
    # Watching does not change the work: with a JSONL exporter attached
    # the chip still takes host writes, host reads and GC copies as
    # spans, and the exporter still gets one event per page.
    stream = io.StringIO()
    stack = span_stack(bus=traced_bus(stream))
    assert not stack.flash._watched()
    per_page = []
    for name in ("program", "read"):
        original = getattr(NandFlash, name)
        monkeypatch.setattr(NandFlash, name, lambda self, *args, _call=original,
                            _name=name, **kwargs: per_page.append(_name)
                            or _call(self, *args, **kwargs))
    stack.write_pages(range(SPAN_PAGES))
    stack.read_pages(range(SPAN_PAGES))
    stack.write_pages(range(0, SPAN_PAGES, 2))  # victims hold live pages
    assert stack.layer.stats.live_page_copies > 0
    assert per_page == []
    stack.mtd._obs.flush()
    kinds = Counter(json.loads(line)["kind"] for line in stream.getvalue().splitlines())
    counters = stack.flash.counters
    assert (kinds["program"], kinds["read"], kinds["erase"]) == (
        counters.programs, counters.reads, counters.erases
    )


class TestSpanErrorParity:
    """A batch that fails midway leaves what the per-page loop leaves."""

    def test_out_of_range_lpn_in_the_middle_of_a_batch(self):
        spans, pages = span_stack(), span_stack(per_page_chip=True)
        for op in "wr":
            for bad in ([3, 4, SPAN_PAGES, 5], [7, -1], range(80, 95)):
                error = assert_same_outcome(spans, pages, op, bad)
                assert isinstance(error, TranslationError)
        assert spans.layer.stats.host_writes == 2 + 1 + 8

    def test_program_onto_a_non_free_page(self):
        spans, pages = span_stack(), span_stack(per_page_chip=True)
        for stack in (spans, pages):
            stack.write_pages(range(3))
            block, page = stack.layer._host_frontier
            # Behind the driver's back (and out of order, past the
            # oracle's ascending check): two pages ahead is no longer free.
            NandFlash.program(stack.flash, block, page + 2, lba=0)
        error = assert_same_outcome(spans, pages, "w", range(10, 15))
        assert isinstance(error, ProgramError) and error.pages_done == 2
        assert spans.layer.stats.host_writes == 3 + 2 + 1

    def test_invalidate_of_a_non_valid_page(self):
        flash = NandFlash(SPAN_GEOMETRY)
        flash.program_span(0, 0, [5, 6, 7])
        with pytest.raises(ProgramError, match="cannot invalidate"):
            flash.invalidate_pages([0, 3, 1])
        assert flash.block_page_states(0)[:4] == bytes(
            [PAGE_INVALID, PAGE_VALID, PAGE_VALID, PAGE_FREE]
        )
        with pytest.raises(AddressError):
            flash.invalidate_pages([SPAN_GEOMETRY.total_pages])


# ----------------------------------------------------------------------
# NFTL span entries and folds vs the per-page loops (DESIGN.md 5j)
# ----------------------------------------------------------------------
# NFTL's read entry takes batches like the FTL's, so the stack's entries
# are held to the per-page ``layer.write`` / ``layer.read`` loop as above
# (NFTL places writes page by page, so the stack loops over ``write``).
# The merge behind a fold moved onto the span primitives; its oracle is
# the per-offset loop that ``_fold`` and ``_attach_merge`` used to carry,
# bound over the shared helper of an otherwise identical stack.
def per_offset_merge(layer, vba, locations, failed_primaries, buffered=None):
    """Historical merge: read, program, invalidate — one offset at a time."""
    geometry, mtd = layer.geometry, layer.mtd
    while True:
        new_primary = layer.allocator.allocate()
        mtd.flash.set_block_tag(new_primary, f"P{vba}")
        copied = 0
        faulted = False
        for offset in range(geometry.pages_per_block):
            if buffered is not None:
                if offset not in buffered:
                    continue
                lba, payload = buffered[offset]
            else:
                if locations[offset] == -1:
                    continue
                src = geometry.page_address(locations[offset])
                lba, payload = mtd.read_page(*src)
            try:
                mtd.write_page(new_primary, offset, lba=lba, data=payload)
            except ProgramFaultError:
                layer._on_program_fault(new_primary)
                failed_primaries.append(new_primary)
                faulted = True
                break
            if buffered is None:
                mtd.invalidate_page(*src)
                locations[offset] = geometry.page_index(new_primary, offset)
            copied += 1
        layer.stats.live_page_copies += copied
        if not faulted:
            return new_primary, copied


def nftl_stack(*, per_offset=False, per_page_chip=False, traced=None, **kwargs):
    """An NFTL stack over SPAN_GEOMETRY.

    ``traced`` (a text stream) attaches a JSONL exporter;
    ``per_page_chip`` forces the chip onto its per-page route (NFTL
    programs home offsets out of order, so no ascending check here).
    """
    if traced is not None:
        kwargs["bus"] = traced_bus(traced)
    stack = build_stack(
        SPAN_GEOMETRY, "nftl", SWLConfig(threshold=2, k=0), rng=make_rng(7), **kwargs
    )
    assert stack.num_logical_pages == SPAN_PAGES
    if per_page_chip:
        force_per_page(stack.flash)
    if per_offset:
        stack.layer._merge_into_fresh_primary = partial(per_offset_merge, stack.layer)
    return stack


nftl_batches = st.lists(
    st.one_of(
        st.tuples(st.sampled_from("wwwr"), page_batches()),
        # EraseBlockSet straight from a leveler: any block range.
        st.tuples(st.just("s"), st.tuples(
            st.integers(0, SPAN_GEOMETRY.num_blocks - 1), st.integers(1, 4)
        )),
    ),
    min_size=1, max_size=30,
)


def drive_nftl(stack, op, arg, *, batched=False):
    if op == "s":
        first, count = arg
        blocks = range(first, min(first + count, SPAN_GEOMETRY.num_blocks))
        try:
            return stack.layer.recycle_block_range(blocks), None
        except FlashError as exc:
            return None, exc
    return drive(stack, op, arg, batched=batched)


def assert_same_nftl_outcome(stacks, op, arg, *, spans_first=False):
    """Drive every stack page by page — the first through the span
    entries with ``spans_first`` — and return the first stack's error."""
    outcomes, errors = [], []
    for at, stack in enumerate(stacks):
        done, error = drive_nftl(stack, op, arg, batched=spans_first and at == 0)
        outcomes.append((done, type(error), str(error), observed(stack)))
        errors.append(error)
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
    return errors[0]


#: Sparse first writes: chains with holes, so their folds take several runs.
SPARSE_FILL = [lpn for lpn in range(SPAN_PAGES) if lpn % 8 not in (2, 5)]


def three_routes():
    """Folds as spans on the flat route, folds as spans with the chip
    forced per page, and the historical loop over a per-page chip — each
    with a trace exporter, whose streams must agree event for event."""
    streams = io.StringIO(), io.StringIO(), io.StringIO()
    return [
        nftl_stack(traced=streams[0]),
        nftl_stack(per_page_chip=True, traced=streams[1]),
        nftl_stack(per_offset=True, per_page_chip=True, traced=streams[2]),
    ], streams


def assert_same_streams(streams):
    assert streams[0].getvalue() == streams[1].getvalue() == streams[2].getvalue()


@settings(max_examples=60, deadline=None)
@given(batches=edge_batches(), prefill=st.sampled_from(PREFILLS))
def test_nftl_span_entries_match_the_per_page_loop(batches, prefill):
    # Ranges inside one VBA (one slice of a chain's locations), across
    # VBAs, unmapped, empty and out of range midway; folds on the way.
    streams = io.StringIO(), io.StringIO()
    stacks = [nftl_stack(traced=streams[0]),
              nftl_stack(per_page_chip=True, traced=streams[1])]
    model = WrittenPages(stacks[:1])
    for op, lpns in [("w", prefill), *batches]:
        model.check(op, lpns, partial(
            assert_same_nftl_outcome, stacks, op, lpns, spans_first=True
        ))
        assert streams[0].getvalue() == streams[1].getvalue()


@settings(max_examples=40, deadline=None)
@given(
    batches=edge_batches(ARRAY_PAGES),
    prefill=st.sampled_from(
        (range(ARRAY_PAGES), range(0, ARRAY_PAGES, 3), range(0))
    ),
)
def test_nftl_array_span_entries_match_the_buffered_and_per_page_routes(
    batches, prefill
):
    assert_array_routes_agree(
        [span_array(driver="nftl") for _ in range(2)]
        + [span_array(driver="nftl", per_page_chip=True)],
        batches, prefill,
    )


@settings(max_examples=40, deadline=None)
@given(batches=nftl_batches, seed=st.integers(0, 2**16),
       loss_at=st.integers(1, 3000))
def test_nftl_span_entries_match_the_per_page_loop_under_faults(
    batches, seed, loss_at
):
    plan = FaultPlan(
        seed=seed, program_fail_prob=0.01, erase_fail_prob=0.02,
        power_loss_at=(loss_at,),
    )
    streams = io.StringIO(), io.StringIO()
    stacks = [nftl_stack(injector=FaultInjector(plan), traced=stream)
              for stream in streams]
    for op, arg in [("w", SPARSE_FILL), *batches]:
        error = assert_same_nftl_outcome(stacks, op, arg, spans_first=True)
        assert streams[0].getvalue() == streams[1].getvalue()
        if error is not None:
            assert isinstance(error, (PowerLossError, OutOfSpaceError))
            break


@settings(max_examples=60, deadline=None)
@given(batches=nftl_batches)
def test_nftl_fold_spans_match_the_per_offset_loop(batches):
    stacks, streams = three_routes()
    for op, arg in [("w", SPARSE_FILL), *batches]:
        assert_same_nftl_outcome(stacks, op, arg)
        assert_same_streams(streams)
        for stack in stacks:
            stack.layer.assert_internal_consistency()


def test_nftl_fold_spans_match_through_every_kind_of_fold():
    # A fixed long sequence, so the folds the property above usually
    # reaches are certain to have run: full replacement, Cleaner, SWL.
    rng = random.Random(21)
    stacks, streams = three_routes()
    spans = stacks[0]
    runs = []
    copy_span = spans.mtd.copy_span
    spans.mtd.copy_span = lambda sources, *args, **kwargs: (
        runs.append(len(sources)), copy_span(sources, *args, **kwargs)
    )
    assert_same_nftl_outcome(stacks, "w", SPARSE_FILL)
    for step in range(200):
        if step % 25 == 24:
            assert_same_nftl_outcome(stacks, "s", (rng.randrange(16), 3))
            continue
        start = rng.randrange(SPAN_PAGES)
        lpns = [(start + i * rng.randint(1, 2)) % SPAN_PAGES
                for i in range(rng.randint(1, 24))]
        assert_same_nftl_outcome(stacks, rng.choice("wwwr"), lpns)
    assert_same_streams(streams)
    for reason in ("fold", "free-space", "swl"):
        assert f'"kind": "gc_start", "reason": "{reason}"' in streams[0].getvalue()
    stats = spans.layer.stats
    assert min(stats.gc_runs, stats.forced_recycles, stats.host_reads) > 0
    assert stats.folds > stats.gc_runs + stats.forced_recycles  # full replacements
    assert sum(runs) == stats.live_page_copies
    assert len(runs) > stats.folds                # chains with holes: several runs
    assert SPAN_GEOMETRY.pages_per_block in runs  # full chains: exactly one


def test_superseding_copy_leaves_the_same_chip_by_either_route():
    # A superseding copy's caller erases every source block next.  Page
    # by page (the route a power cut can interrupt) each source goes
    # invalid before the next one is read; a span the chip takes at once
    # leaves its sources to that erase.  Either way the erase leaves the
    # same chip.
    sources = [1, 8, 3, 9]
    outcomes = []
    for store_data in (False, True):  # flat route, per-page route
        mtd = MtdDevice(NandFlash(SPAN_GEOMETRY, store_data=store_data))
        mtd.program_span(0, 0, [10, 11, 12, 13])
        mtd.program_span(1, 0, [14, 15])

        def source_states():
            return bytes(mtd.flash.page_state(*divmod(index, 8)) for index in sources)

        seen = []
        read = mtd.flash.read
        mtd.flash.read = lambda block, page: (
            seen.append(source_states()), read(block, page)
        )[1]
        mtd.copy_span(sources, 2, 3, supersede=True)
        del mtd.flash.read
        if store_data:
            assert seen == [
                bytes([PAGE_INVALID] * done + [PAGE_VALID] * (4 - done))
                for done in range(4)
            ]
            assert source_states() == bytes([PAGE_INVALID] * 4)
        else:
            assert seen == [] and source_states() == bytes([PAGE_VALID] * 4)
        assert [mtd.flash.page_lba(2, page) for page in range(3, 7)] == [11, 14, 13, 15]
        # A destination page that is not free: the span goes page by page
        # and stops there, the pages before it already superseded.
        mtd.flash.program(3, 2, lba=0)
        with pytest.raises(ProgramError) as caught:
            mtd.copy_span([0, 19, 2], 3, 1, supersede=True)
        assert caught.value.pages_done == 1 and caught.value.carry == (11, None)
        assert mtd.flash.page_state(0, 0) == PAGE_INVALID
        assert mtd.flash.page_state(2, 3) == mtd.flash.page_state(0, 2) == PAGE_VALID
        counters = mtd.counters.snapshot()
        for block in (0, 1):
            mtd.erase_block(block)
        chip = mtd.flash.snapshot_state()
        outcomes.append((
            [chip[key] for key in ("states", "spare_lba", "block_tags")],
            counters, mtd.busy_time,
        ))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=60, deadline=None)
@given(batches=nftl_batches, seed=st.integers(0, 2**16),
       loss_at=st.integers(1, 3000))
def test_nftl_fold_spans_match_the_per_offset_loop_under_faults(
    batches, seed, loss_at
):
    plan = FaultPlan(
        seed=seed, program_fail_prob=0.01, erase_fail_prob=0.02,
        power_loss_at=(loss_at,),
    )
    stacks = [nftl_stack(injector=FaultInjector(plan)),
              nftl_stack(per_offset=True, injector=FaultInjector(plan))]
    for op, arg in [("w", SPARSE_FILL), *batches]:
        error = assert_same_nftl_outcome(stacks, op, arg)
        if error is not None:
            assert isinstance(error, (PowerLossError, OutOfSpaceError))
            break


class Counts(NamedTuple):
    programs: int
    reads: int
    copies: int
    ops: int | None  #: injector operation ordinal, when one is attached


def fold_windows(stack, writes):
    """``(began, ended, pages)`` per fold while driving ``writes``: the
    :class:`Counts` around it and the live pages of the chain it merged."""
    windows = []
    layer, fold = stack.layer, stack.layer._fold

    def counts():
        counters, injector = stack.flash.counters, stack.flash.injector
        return Counts(
            counters.programs, counters.reads, layer.stats.live_page_copies,
            None if injector is None else injector.stats.ops,
        )

    def watched(chain):
        began, pages = counts(), chain.valid_offsets
        fold(chain)
        windows.append((began, counts(), pages))

    layer._fold = watched
    written = {}
    for lpn, payload in writes:
        layer.write(lpn, payload)
        written[lpn] = payload
    assert all(layer.read(lpn) == payload for lpn, payload in written.items())
    return windows


def hot_writes(count, seed=5):
    rng = random.Random(seed)
    for version in range(count):
        lpn = rng.randrange(24) if rng.random() < 0.8 else rng.randrange(SPAN_PAGES)
        yield lpn, f"lpn={lpn} v={version}".encode()


def fail_program(stack, ordinal):
    """Make the chip's ``ordinal``-th program fail (its block grows bad)."""
    injector = stack.flash.injector
    on_program = injector.on_program

    def failing(block, page):
        if stack.flash.counters.programs + 1 == ordinal:
            injector.bad_program_blocks.add(block)
        on_program(block, page)

    injector.on_program = failing


def test_program_fault_mid_fold_restarts_like_the_per_offset_loop():
    clean = fold_windows(nftl_stack(store_data=True), hot_writes(300))
    at = next(i for i, (_, _, pages) in enumerate(clean) if pages >= 6)
    stacks, folds = [], []
    for per_offset in (False, True):
        stack = nftl_stack(
            per_offset=per_offset, store_data=True,
            injector=FaultInjector(FaultPlan(seed=3)),
        )
        fail_program(stack, clean[at][0].programs + 4)  # the fold's fourth copy
        folds.append(fold_windows(stack, hot_writes(300)))
        stacks.append(stack)
    spans, oracle = stacks
    assert observed(spans) == observed(oracle) and folds[0] == folds[1]
    assert spans.layer.stats.program_faults == 1
    assert len(spans.layer.retired_blocks) == 1
    # The restart copies again the three pages that had landed, and reads
    # again the one whose program failed.
    began, ended, pages = folds[0][at]
    assert began.programs == clean[at][0].programs
    assert ended.programs - began.programs == pages + 4
    assert ended.reads - began.reads == pages + 4
    assert ended.copies - began.copies == pages + 3


def assert_one_valid_copy_per_page(flash, loss_at):
    tags = [
        flash.page_lba(block, page)
        for block in range(SPAN_GEOMETRY.num_blocks)
        for page in flash.valid_pages(block)
    ]
    assert len(tags) == len(set(tags)), f"two valid copies, loss at {loss_at}"


def test_power_loss_at_every_page_of_a_fold_loses_nothing():
    counting = nftl_stack(store_data=True, injector=FaultInjector(FaultPlan()))
    began, ended, pages = next(
        w for w in fold_windows(counting, hot_writes(300)) if w[2] >= 6
    )
    assert ended.ops - began.ops >= 2 * pages + 1  # read + program a page, erases
    for loss_at in range(began.ops + 1, ended.ops + 1):
        plan = FaultPlan(power_loss_at=(loss_at,))
        stack = nftl_stack(store_data=True, injector=FaultInjector(plan))
        acked, inflight = {}, None
        with pytest.raises(PowerLossError):
            for inflight in hot_writes(300):
                stack.layer.write(*inflight)
                acked[inflight[0]] = inflight[1]
        # The supersede rule: at most one valid copy of a page at any
        # instant, so the attach scan never has to choose between two.
        assert_one_valid_copy_per_page(stack.flash, loss_at)
        stack.mtd.clear_erase_listeners()  # RAM wiring dies with the power
        layer = make_layer("nftl", stack.mtd)
        layer.rebuild_mapping()
        layer.assert_internal_consistency()
        assert_one_valid_copy_per_page(stack.flash, loss_at)
        lpn, payload = inflight
        if layer.read(lpn) == payload:  # durable, though never acknowledged
            acked[lpn] = payload
        for lpn, payload in acked.items():
            assert layer.read(lpn) == payload, f"lpn {lpn} lost, loss at {loss_at}"
