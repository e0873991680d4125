"""Synthetic mobile-PC workload generator.

The paper's trace is proprietary; this generator reproduces every property
the paper reports about it (Section 5.1) so that the wear-leveling
behaviour under study is preserved — see DESIGN.md, Substitutions:

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

Everything is driven by one seed; the same parameters and seed always
produce the identical trace.  The trace is built whole, as the four
columns of a :class:`~repro.traces.model.Trace` (no object per request),
by one loop in :meth:`MobilePCWorkload.requests`.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from repro.traces.model import Op, Request, Trace
from repro.util.rng import make_rng

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

    Build once, then call :meth:`requests` for the finite base trace: a
    columnar :class:`~repro.traces.model.Trace`, usable wherever a list of
    requests was.

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
        self._rng.shuffle(order)
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

    def prefill_requests(self) -> list[Request]:
        """One sequential write over every extent — the disk image.

        The paper's machine had been in use before the trace started, so
        data already occupied the flash.  Experiment runners replay this
        image once before the resampled trace (`warmup`), giving static
        data blocks to pin from the very first simulated second.
        """
        return [
            Request(0.0, Op.WRITE, lba, sectors)
            for extent in sorted(self.extents, key=lambda e: e.start)
            for lba, sectors in self._sequential_pass(extent)
        ]

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
                schedule.append((self._rng.uniform(0.0, p.duration), extent))
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

        This loop is the only code that draws for the stream, through the
        public ``random.Random`` methods in a fixed order, so the trace is
        a function of the parameters and the seed.
        """
        p = self.params
        rng = self._rng
        rand, expovariate, choice = rng.random, rng.expovariate, rng.choice
        randrange, randint = rng.randrange, rng.randint
        hot, warm, extents = self._hot, self._warm, self.extents
        write_rate, read_rate, end = p.write_rate, p.read_rate, p.duration
        hot_write_share = p.hot_write_share
        small_write_fraction = SMALL_WRITE_FRACTION
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
        next_write = expovariate(write_rate)
        next_read = expovariate(read_rate)
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
                next_write = time + expovariate(write_rate)
                extent = choice(
                    hot if (rand() < hot_write_share and hot) else (warm or hot))
                if rand() < small_write_fraction:
                    sectors = randint(
                        1, min(SMALL_WRITE_MAX_SECTORS, extent.length))
                    lba = extent.start + randrange(
                        max(1, extent.length - sectors + 1))
                else:
                    lba, sectors = extent.next_run(min(
                        1 + int(expovariate(write_size_rate)), max_request))
            else:
                next_read = time + expovariate(read_rate)
                extent = choice(hot if (rand() < 0.5 and hot) else extents)
                sectors = min(1 + int(expovariate(read_size_rate)),
                              max_request, extent.length)
                lba = extent.start + randrange(
                    max(1, extent.length - sectors + 1))
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
