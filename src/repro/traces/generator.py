"""Seeded workload generators: the mobile-PC model and five synthetic shapes.

Every generator here is a pure function of its parameters and seed, and
every finite output is a columnar :class:`~repro.traces.model.Trace`:
:meth:`MobilePCWorkload.requests` (the base trace),
:meth:`MobilePCWorkload.prefill_requests` (the disk image) and
:meth:`WorkloadShape.requests` (a shape's stream up to a duration).

Mobile-PC model
---------------
The paper's trace is proprietary; :class:`MobilePCWorkload` reproduces
every property the paper reports about it (Section 5.1) so that the
wear-leveling behaviour under study is preserved — see DESIGN.md,
Substitutions:

* "about 36.62% of LBAs being written in the collected trace" —
  ``written_fraction`` of the sector space belongs to written extents;
  a pre-fill pass (the data already on the month-old machine) writes each
  extent once, so cold data *occupies* blocks from the start, which is the
  precondition for the static-wear-leveling problem.
* "the averaged number of write (/read) operations per second was 1.82
  (/1.97)" — Poisson arrivals at those rates.
* "daily activities, such as web surfing, email access, movie downloading
  and playing, game playing, and document editing" — a small hot subset of
  extents (browser caches, registry, documents being edited) absorbs most
  write traffic; a warm subset (downloads, new documents) sees the rest;
  and a *static* majority (installed software, the OS image, media files)
  is written once at pre-fill and never again.  Static data is what pins
  blocks under dynamic wear leveling — the phenomenon the SW Leveler
  exists to fix (paper Section 1: "blocks of cold data are likely to stay
  intact, regardless of how updates of non-cold data wear out other
  blocks"; and [7]: "the amount of non-hot data could be several times of
  that of hot data").
* "hot data were often written in burst" (Section 5.3, the reason FTL's
  baseline copying cost is tiny) — writes are sequential runs inside an
  extent, advancing a cyclic per-extent cursor, so hot blocks become fully
  invalid quickly.

The base trace is built whole, as the four columns of a ``Trace`` (no
object per request), by one loop in :meth:`MobilePCWorkload.requests`.
Its parameters are the paper's trace statistics (:class:`WorkloadParams`),
not :class:`ShapeParams`, so it is built directly rather than through
:func:`make_shape`.

Workload shapes
---------------
The paper's evaluation replays one desktop trace; generalization studies
need other traffic.  Each shape is a seeded generator of an endless
request stream (:meth:`WorkloadShape.iter_requests`):

* :class:`HotspotWorkload` — Zipf(θ)-popular chunks over a seeded random
  placement; θ ≈ 0.99 is the classic YCSB-style skew.
* :class:`SequentialStreamWorkload` — an append-only circular stream
  (log shipping, media ingest).
* :class:`UniformAccessWorkload` — uniformly random requests, the
  no-skew null case.
* :class:`MixedWorkload` — uniform placement with a configurable
  read/write ratio (the default through :func:`make_shape` is 50/50).
* :class:`PhaseShiftingWorkload` — a Zipf hot set that *migrates* on a
  configurable period, modeling application churn and working-set
  drift; the stress case for a static wear leveler, whose cold blocks
  keep turning hot.

Every shape draws from its own ``spawn_rng(make_rng(seed),
"workload:<name>")`` stream — a sibling of the ``"leveler"``,
``"resampler"``, and ``"arrivals"`` streams — so generating or consuming
workload traffic can never perturb replay randomness (the seed-stability
tests pin this: the golden replay digest is unchanged with workloads
active).  Arrival times are Poisson at ``params.rate`` requests per
second.  The read/write decision is drawn on every request even when
``read_fraction`` is 0, so changing the mix changes *only* the ops of a
stream, never its LBA sequence — mixes stay directly comparable.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import takewhile
from math import log
from typing import Iterator

from repro.traces.model import Op, Request, Trace
from repro.util.rng import (
    below,
    exponential,
    make_rng,
    shuffle,
    spawn_rng,
    uniform,
)

DAY = 86_400.0
MONTH = 30 * DAY

# Extent and request sizes, in sectors, calibrated to the paper's trace.
MEAN_EXTENT_SECTORS = 2048          #: mean warm extent (file) size
MEAN_HOT_EXTENT_SECTORS = 1024      #: hot extents are small (caches)
MEAN_STATIC_EXTENT_SECTORS = 8192   #: static extents are large (media)
MEAN_WRITE_SECTORS = 32             #: mean bulk-write request size
MEAN_READ_SECTORS = 32              #: mean read request size
MAX_REQUEST_SECTORS = 256           #: request size cap
SMALL_WRITE_FRACTION = 0.30         #: metadata-style small random writes
SMALL_WRITE_MAX_SECTORS = 8         #: size cap of metadata writes


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs of the synthetic mobile-PC workload.

    Defaults reproduce the statistics of the paper's trace on a
    configurable address-space size.
    """

    total_sectors: int = 2_097_152        #: paper: 2,097,152 LBAs (1 GiB)
    duration: float = MONTH               #: paper: one month
    write_rate: float = 1.82              #: write ops per second (paper)
    read_rate: float = 1.97               #: read ops per second (paper)
    written_fraction: float = 0.3662      #: fraction of LBAs ever written
    hot_fraction: float = 0.125           #: hot share of the *written* set
    static_fraction: float = 0.70         #: write-once share of the written set
    hot_write_share: float = 0.90         #: daily writes landing on hot extents
    cold_write_period: float = MONTH      #: mean time between static rewrites
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.total_sectors <= 0:
            raise ValueError("total_sectors must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 < self.written_fraction <= 1.0:
            raise ValueError("written_fraction must be in (0, 1]")
        if not 0.0 < self.hot_fraction < 1.0:
            raise ValueError("hot_fraction must be in (0, 1)")
        if not 0.0 <= self.static_fraction < 1.0:
            raise ValueError("static_fraction must be in [0, 1)")
        if self.hot_fraction + self.static_fraction >= 1.0:
            raise ValueError(
                "hot_fraction + static_fraction must leave room for warm data"
            )
        if not 0.0 <= self.hot_write_share <= 1.0:
            raise ValueError("hot_write_share must be in [0, 1]")
        if self.cold_write_period <= 0:
            raise ValueError("cold_write_period must be positive")
        for name in ("write_rate", "read_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class Temperature(Enum):
    """Update temperature of a written extent."""

    HOT = "hot"        #: overwritten constantly (caches, logs, documents)
    WARM = "warm"      #: overwritten occasionally (downloads, new files)
    STATIC = "static"  #: written once at pre-fill, never again (OS, media)


@dataclass
class _Extent:
    """A contiguous written region (a file or system area) with a write
    cursor that makes successive writes sequential-cyclic inside it."""

    start: int
    length: int
    temperature: Temperature
    cursor: int = 0

    def next_run(self, sectors: int) -> tuple[int, int]:
        """Advance the cursor by ``sectors`` (clipped to the extent) and
        return the (lba, sectors) run it covered."""
        sectors = min(sectors, self.length)
        if self.cursor + sectors > self.length:
            self.cursor = 0
        lba = self.start + self.cursor
        self.cursor = (self.cursor + sectors) % self.length
        return lba, sectors


@dataclass
class MobilePCWorkload:
    """Seeded generator of mobile-PC style traces.

    Build once, then call :meth:`requests` for the finite base trace and
    :meth:`prefill_requests` for the disk image, each a columnar
    :class:`~repro.traces.model.Trace`.

    Examples
    --------
    >>> params = WorkloadParams(total_sectors=65536, duration=3600.0, seed=1)
    >>> trace = MobilePCWorkload(params).requests()
    >>> trace[0].time <= trace[-1].time
    True
    """

    params: WorkloadParams
    extents: list[_Extent] = field(init=False)
    _rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self._rng = make_rng(self.params.seed)
        self.extents = self._layout_extents()
        self._hot = [e for e in self.extents if e.temperature is Temperature.HOT]
        self._warm = [e for e in self.extents if e.temperature is Temperature.WARM]

    # ------------------------------------------------------------------
    # Address-space layout
    # ------------------------------------------------------------------
    def _layout_extents(self) -> list[_Extent]:
        """Scatter written extents over the sector space.

        Extents are carved from a random permutation of fixed-size slots
        so they never overlap; sizes are geometric around the per-class
        mean.  Static extents (installed software, media files) are carved
        first with their larger size so they claim long contiguous runs —
        the spatial structure that makes the BET's one-to-many mode
        meaningful (paper Section 3.2: a flag per ``2^k`` *contiguous*
        blocks only overlooks cold data when hot data shares the set).
        Hot extents (caches, logs) are small and scattered.
        """
        p = self.params
        target_written = int(p.total_sectors * p.written_fraction)
        class_plan = (
            # carve order matters: big static runs first, then hot, warm.
            (Temperature.STATIC, p.static_fraction, MEAN_STATIC_EXTENT_SECTORS),
            (Temperature.HOT, p.hot_fraction, MEAN_HOT_EXTENT_SECTORS),
            (Temperature.WARM, None, MEAN_EXTENT_SECTORS),
        )
        slot = max(64, min(mean for _, _, mean in class_plan) // 4)
        # Tiny address spaces (unit tests, miniature chips) still need
        # enough slots for all three temperature classes to coexist.
        slot = max(16, min(slot, p.total_sectors // 16))
        num_slots = p.total_sectors // slot
        if num_slots == 0:
            raise ValueError(
                f"total_sectors={p.total_sectors} too small for extent slots"
            )
        order = list(range(num_slots))
        shuffle(self._rng, order)
        used = bytearray(num_slots)
        extents: list[_Extent] = []
        carved = 0
        for temperature, fraction, mean in class_plan:
            if fraction is None:
                target = target_written - carved  # warm takes the remainder
            else:
                target = int(target_written * fraction)
            covered = 0
            for first in order:
                if covered >= target:
                    break
                if used[first]:
                    continue
                # Geometric number of consecutive slots ~ exponential
                # sizes; an extent stops early at a slot already taken.
                nslots = 1
                while (
                    self._rng.random() < 1.0 - slot / mean
                    and nslots * slot < 16 * mean
                    and first + nslots < num_slots
                    and not used[first + nslots]
                ):
                    nslots += 1
                for index in range(first, first + nslots):
                    used[index] = 1
                length = min(nslots * slot, target - covered)
                extents.append(
                    _Extent(start=first * slot, length=length,
                            temperature=temperature)
                )
                covered += length
            carved += covered
        if not any(e.temperature is Temperature.HOT for e in extents):
            # Tiny address spaces can let the static class (carved first)
            # claim every slot, leaving the hot class nothing.  The stream
            # generator requires at least one hot extent, so relabel the
            # smallest extent instead of failing.  No RNG draws happen on
            # this path: layouts that already have hot extents — every
            # previously working parameter set — are byte-identical.
            if not extents:
                raise ValueError(
                    "workload parameters produced no extents at all")
            smallest = min(extents, key=lambda e: (e.length, e.start))
            extents[extents.index(smallest)] = _Extent(
                start=smallest.start, length=smallest.length,
                temperature=Temperature.HOT)
        return extents

    # ------------------------------------------------------------------
    # Request stream
    # ------------------------------------------------------------------
    def _sequential_pass(self, extent: _Extent) -> Iterator[tuple[int, int]]:
        """The (lba, sectors) runs of one sequential write over an extent."""
        step = MAX_REQUEST_SECTORS
        for offset in range(0, extent.length, step):
            yield extent.start + offset, min(step, extent.length - offset)

    def prefill_requests(self) -> Trace:
        """One sequential write over every extent — the disk image.

        The paper's machine had been in use before the trace started, so
        data already occupied the flash.  Experiment runners replay this
        image once before the resampled trace (`warmup`), giving static
        data blocks to pin from the very first simulated second.
        """
        return Trace.from_requests(
            Request(0.0, Op.WRITE, lba, sectors)
            for extent in sorted(self.extents, key=lambda e: e.start)
            for lba, sectors in self._sequential_pass(extent)
        )

    def _static_write_schedule(self) -> list[tuple[float, _Extent]]:
        """One-time rewrites of static extents scattered over the trace.

        In the real trace, cold LBAs are written rarely — about once per
        ``cold_write_period`` (a software update, a saved movie).  Each
        static extent therefore gets a Poisson number of full rewrites
        with expectation ``duration / cold_write_period``, at uniform
        times.  Via the 10-minute resampler this reproduces the correct
        *density* of cold writes in the endless trace.
        """
        p = self.params
        expectation = p.duration / p.cold_write_period
        schedule: list[tuple[float, _Extent]] = []
        for extent in self.extents:
            if extent.temperature is not Temperature.STATIC:
                continue
            rewrites = self._poisson(expectation)
            for _ in range(rewrites):
                schedule.append((uniform(self._rng, 0.0, p.duration), extent))
        schedule.sort(key=lambda item: item[0])
        return schedule

    def _poisson(self, expectation: float) -> int:
        """Small-expectation Poisson sample (Knuth's method)."""
        limit = math.exp(-expectation)
        count = 0
        product = self._rng.random()
        while product > limit:
            count += 1
            product *= self._rng.random()
        return count

    def requests(self) -> Trace:
        """Generate the base trace, time-ordered, as a :class:`Trace`.

        The stream interleaves Poisson hot/warm writes, Poisson reads, and
        the scattered one-time static rewrites (each a sequential burst
        under one timestamp, so the stream stays ordered however the burst
        interleaves with the arrivals around it).

        A daily write is a sequential burst or a small metadata update.
        Bulk writes (file saves, downloads) advance the extent's cyclic
        cursor — the paper's "hot data were often written in burst".
        Metadata writes (directory entries, the NTFS MFT) are small and
        land at random offsets; they are what makes coarse-grained NFTL
        fold whole primary/replacement pairs for a handful of stale pages,
        while fine-grained FTL absorbs them at page granularity
        (Section 2.2's architectural contrast).  Reads touch the whole
        written set, mildly biased to hot data.

        This loop is the only code that draws for the stream, in a fixed
        order, through the samplers of :mod:`repro.util.rng` (inside the
        loop inlined, each under a comment naming the function), so the
        trace is a function of the parameters and the seed, and of no
        ``random.py``.
        """
        p = self.params
        rng = self._rng
        rand, getrandbits = rng.random, rng.getrandbits
        # The three extent pools a draw picks from, each with its size and
        # bit length for the inlined below(len(pool)); the layout always
        # has a hot extent.
        hot, cool, every = (
            (pool, len(pool), len(pool).bit_length())
            for pool in (self._hot, self._warm or self._hot, self.extents))
        write_rate, read_rate, end = p.write_rate, p.read_rate, p.duration
        hot_write_share = p.hot_write_share
        small_write_fraction = SMALL_WRITE_FRACTION
        small_write_max = SMALL_WRITE_MAX_SECTORS
        max_request = MAX_REQUEST_SECTORS
        write_size_rate = 1.0 / max(1, MEAN_WRITE_SECTORS - 1)
        read_size_rate = 1.0 / max(1, MEAN_READ_SECTORS - 1)
        times, ops = array("d"), bytearray()
        lbas, counts = array("q"), array("q")
        add_time, add_op = times.append, ops.append
        add_lba, add_count = lbas.append, counts.append

        rewrites = self._static_write_schedule()
        rewrites.reverse()  # pop() takes the earliest
        due = rewrites[-1][0] if rewrites else math.inf
        next_write = exponential(rng, write_rate)
        next_read = exponential(rng, read_rate)
        while True:
            is_write = next_write <= next_read
            time = next_write if is_write else next_read
            while due <= time:
                _, cold = rewrites.pop()
                for lba, sectors in self._sequential_pass(cold):
                    add_time(due)
                    add_op(1)
                    add_lba(lba)
                    add_count(sectors)
                due = rewrites[-1][0] if rewrites else math.inf
            if time >= end:
                return Trace(times, ops, lbas, counts)
            if is_write:
                # exponential(rate), inlined here and below:
                # -log(1.0 - random()) / rate
                next_write = time + -log(1.0 - rand()) / write_rate
                # below(n) for the extent, inlined here and below: draw
                # n.bit_length() bits until the draw is under n.
                pool, n, bits = hot if rand() < hot_write_share else cool
                pick = getrandbits(bits)
                while pick >= n:
                    pick = getrandbits(bits)
                extent = pool[pick]
                length = extent.length
                if rand() < small_write_fraction:
                    # 1 + below(n): the run's size
                    n = small_write_max if length > small_write_max else length
                    bits = n.bit_length()
                    sectors = getrandbits(bits)
                    while sectors >= n:
                        sectors = getrandbits(bits)
                    sectors += 1
                    # below(n): the run's offset in the extent
                    n = length - sectors + 1 if length > sectors else 1
                    bits = n.bit_length()
                    offset = getrandbits(bits)
                    while offset >= n:
                        offset = getrandbits(bits)
                    lba = extent.start + offset
                else:
                    size = 1 + int(-log(1.0 - rand()) / write_size_rate)
                    lba, sectors = extent.next_run(
                        size if size < max_request else max_request)
            else:
                next_read = time + -log(1.0 - rand()) / read_rate
                pool, n, bits = hot if rand() < 0.5 else every
                pick = getrandbits(bits)
                while pick >= n:
                    pick = getrandbits(bits)
                extent = pool[pick]
                length = extent.length
                sectors = 1 + int(-log(1.0 - rand()) / read_size_rate)
                if sectors > max_request:
                    sectors = max_request
                if sectors > length:
                    sectors = length
                # below(n): the read's offset in the extent
                n = length - sectors + 1 if length > sectors else 1
                bits = n.bit_length()
                offset = getrandbits(bits)
                while offset >= n:
                    offset = getrandbits(bits)
                lba = extent.start + offset
            add_time(time)
            add_op(is_write)
            add_lba(lba)
            add_count(sectors)

    # ------------------------------------------------------------------
    def written_sectors(self) -> int:
        """Total sectors belonging to written extents."""
        return sum(extent.length for extent in self.extents)

    def sectors_by_temperature(self) -> dict[Temperature, int]:
        """Written sectors per temperature class."""
        totals = {temperature: 0 for temperature in Temperature}
        for extent in self.extents:
            totals[extent.temperature] += extent.length
        return totals

    def hot_sectors(self) -> int:
        return self.sectors_by_temperature()[Temperature.HOT]

    def static_sectors(self) -> int:
        return self.sectors_by_temperature()[Temperature.STATIC]


# ----------------------------------------------------------------------
# Workload shapes
# ----------------------------------------------------------------------
#: Default Zipf exponent for hotspot-style shapes (YCSB's zipfian θ).
DEFAULT_THETA = 0.99

#: Default hot-set migration period of the phase-shifting shape (1 h).
DEFAULT_PHASE_PERIOD = 3600.0


@dataclass(frozen=True)
class ShapeParams:
    """Common knobs of every workload shape.

    ``rate`` is the total request rate (reads and writes together); the
    mobile-PC trace runs at roughly 4 requests per second, which is the
    default so generated workloads are comparable to the paper's.
    """

    total_sectors: int
    rate: float = 4.0                 #: requests per second (Poisson)
    request_sectors: int = 8          #: sectors per request
    read_fraction: float = 0.0        #: probability a request is a read
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_sectors <= 0:
            raise ValueError("total_sectors must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.request_sectors < 1:
            raise ValueError("request_sectors must be >= 1")
        if not 0.0 <= self.read_fraction < 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1), got {self.read_fraction}"
            )


class WorkloadShape:
    """Base shape: Poisson arrivals, per-shape LBA policy, own RNG stream."""

    #: Stable shape identifier; also names the RNG stream, so two shapes
    #: with the same seed still draw decorrelated randomness.
    shape_name = "abstract"

    def __init__(self, params: ShapeParams) -> None:
        self.params = params
        self._rng = spawn_rng(
            make_rng(params.seed), f"workload:{self.shape_name}"
        )

    def _next_lba(self, now: float) -> int:
        """First sector of the next request (shape-specific)."""
        raise NotImplementedError

    def _reset_stream(self) -> None:
        """Restart the stream state (RNG and any cursors).

        Called at the top of every :meth:`iter_requests`, so each call
        replays the *identical* stream — the stream is a pure function
        of (seed, shape), and one shape instance can drive a replay run
        and a service run with the same requests.  The ``:stream`` salt
        keeps arrival draws decorrelated from the construction-time
        placement shuffle.  One active iteration per instance: a second
        concurrent iterator would share (and reset) this state.
        """
        self._rng = spawn_rng(
            make_rng(self.params.seed), f"workload:{self.shape_name}:stream"
        )

    def iter_requests(self) -> Iterator[Request]:
        """Endless request stream; bound it with a stop condition."""
        self._reset_stream()
        params = self.params
        rng = self._rng
        rand = rng.random
        rate = params.rate
        read_fraction = params.read_fraction
        total = params.total_sectors
        step = params.request_sectors
        now = 0.0
        while True:
            # exponential(rate), inlined: -log(1 - random()) / rate
            now += -log(1.0 - rand()) / rate
            # The op draw always happens so read_fraction never shifts
            # the LBA stream (see module docstring).
            op = Op.READ if rand() < read_fraction else Op.WRITE
            lba = self._next_lba(now)
            yield Request(now, op, lba, min(step, total - lba))

    def requests(self, duration: float) -> Trace:
        """The stream's requests before ``duration`` simulated seconds."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return Trace.from_requests(
            takewhile(lambda request: request.time < duration,
                      self.iter_requests()))


class _ZipfChunks(WorkloadShape):
    """Shared machinery: Zipf(θ) popularity over permuted fixed chunks."""

    def __init__(self, params: ShapeParams, *, theta: float = DEFAULT_THETA) -> None:
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        super().__init__(params)
        self.theta = theta
        count = max(1, params.total_sectors // params.request_sectors)
        # A seeded permutation scatters the popularity ranks over the
        # address space, so "hot" is not synonymous with "low LBA".
        self._placement = list(range(count))
        shuffle(self._rng, self._placement)
        weights = [1.0 / (rank + 1) ** theta for rank in range(count)]
        total = sum(weights)
        running = 0.0
        self._cdf = []
        for weight in weights:
            running += weight / total
            self._cdf.append(running)

    @property
    def chunk_count(self) -> int:
        return len(self._cdf)

    def _zipf_rank(self) -> int:
        """Draw a popularity rank (0 = hottest) by CDF binary search.

        The first rank whose CDF reaches the draw; the last rank when
        rounding leaves ``cdf[-1]`` below it.
        """
        cdf = self._cdf
        rank = bisect_left(cdf, self._rng.random())
        return rank if rank < len(cdf) else len(cdf) - 1

    def _chunk_for(self, rank: int, now: float) -> int:
        return self._placement[rank]

    def _next_lba(self, now: float) -> int:
        chunk = self._chunk_for(self._zipf_rank(), now)
        return chunk * self.params.request_sectors


class HotspotWorkload(_ZipfChunks):
    """Zipf(θ)-skewed requests: a few chunks absorb most traffic."""

    shape_name = "hotspot"


class PhaseShiftingWorkload(_ZipfChunks):
    """A Zipf hot set that migrates across the space every ``period``.

    Each phase rotates the popularity placement by a fixed stride
    (about a third of the space), so the blocks that were cold last
    phase — exactly the ones a static wear leveler would park behind
    its BET flags — turn hot in the next.  The phase index is derived
    from the request's own timestamp, so the stream stays a pure
    function of (seed, time): replaying any prefix is deterministic.
    """

    shape_name = "phase"

    def __init__(
        self,
        params: ShapeParams,
        *,
        theta: float = DEFAULT_THETA,
        period: float = DEFAULT_PHASE_PERIOD,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        super().__init__(params, theta=theta)
        self.period = period
        self._stride = max(1, self.chunk_count // 3)

    def _chunk_for(self, rank: int, now: float) -> int:
        phase = int(now // self.period)
        return self._placement[
            (rank + phase * self._stride) % self.chunk_count
        ]


class SequentialStreamWorkload(WorkloadShape):
    """Append-only circular stream over the whole space."""

    shape_name = "sequential"

    def __init__(self, params: ShapeParams) -> None:
        super().__init__(params)
        self._cursor = 0

    def _reset_stream(self) -> None:
        super()._reset_stream()
        self._cursor = 0

    def _next_lba(self, now: float) -> int:
        params = self.params
        if self._cursor + params.request_sectors > params.total_sectors:
            self._cursor = 0
        lba = self._cursor
        self._cursor += params.request_sectors
        return lba


class UniformAccessWorkload(WorkloadShape):
    """Uniformly random requests — the no-skew null case."""

    shape_name = "uniform"

    def _next_lba(self, now: float) -> int:
        params = self.params
        span = max(1, params.total_sectors - params.request_sectors + 1)
        return below(self._rng, span)


class MixedWorkload(UniformAccessWorkload):
    """Uniform placement with a read/write mix (default 50/50 via factory)."""

    shape_name = "mixed"


#: Shape names accepted by :func:`make_shape`, in canonical order.
SHAPE_NAMES = ("hotspot", "sequential", "uniform", "mixed", "phase")


def make_shape(
    name: str,
    params: ShapeParams,
    *,
    theta: float = DEFAULT_THETA,
    period: float = DEFAULT_PHASE_PERIOD,
) -> WorkloadShape:
    """Build a workload shape by name.

    ``theta`` applies to the hotspot and phase-shifting shapes,
    ``period`` to phase-shifting only.  The mixed shape defaults its
    read fraction to 0.5 when ``params`` leaves it at 0 — passing an
    explicit nonzero fraction always wins.
    """
    key = name.lower()
    if key == "hotspot":
        return HotspotWorkload(params, theta=theta)
    if key == "sequential":
        return SequentialStreamWorkload(params)
    if key == "uniform":
        return UniformAccessWorkload(params)
    if key == "mixed":
        if params.read_fraction == 0.0:
            params = replace(params, read_fraction=0.5)
        return MixedWorkload(params)
    if key == "phase":
        return PhaseShiftingWorkload(params, theta=theta, period=period)
    raise ValueError(
        f"unknown workload shape {name!r}; choose from {SHAPE_NAMES}"
    )
