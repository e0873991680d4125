"""Trace data model.

The paper's evaluation replays a block-level access trace "collected over a
mobile PC with a 20GB hard disk (by NTFS) for a month" (Section 5.1).  A
trace is a time-ordered sequence of sector-granular read/write requests;
this module defines that request record, the columnar :class:`Trace` that
holds a finite trace in memory, and the summary statistics the paper
reports about its trace.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from math import inf
from operator import eq, le
from typing import NamedTuple, overload


class Op(Enum):
    """Request direction."""

    READ = "R"
    WRITE = "W"


class _RequestFields(NamedTuple):
    time: float
    op: Op
    lba: int
    sectors: int = 1


class Request(_RequestFields):
    """One block-device request: the 4-tuple ``(time, op, lba, sectors)``.

    Attributes
    ----------
    time:
        Issue time in seconds from the start of the trace.
    op:
        :class:`Op` direction.
    lba:
        First 512-byte sector addressed.
    sectors:
        Number of consecutive sectors transferred (>= 1).

    Calling ``Request(...)`` (and ``_make`` / ``_replace``, and unpickling)
    validates the fields.  A :class:`Trace` checks its columns once and
    hands out rows built by ``tuple.__new__``, so replaying a trace
    re-validates nothing; a hot loop reads a request by unpacking it.
    Being a tuple, a request compares equal to a plain 4-tuple of the
    same fields.
    """

    __slots__ = ()

    def __new__(cls, time: float, op: Op, lba: int, sectors: int = 1) -> Request:
        if not 0.0 <= time < inf:  # also false for NaN
            raise ValueError(f"request time must be finite and >= 0, got {time}")
        if lba < 0:
            raise ValueError(f"negative LBA {lba}")
        if sectors < 1:
            raise ValueError(f"sectors must be >= 1, got {sectors}")
        return tuple.__new__(cls, (time, op, lba, sectors))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> Request:
        return cls(*iterable)

    def __reduce__(self) -> tuple[type[Request], tuple[object, ...]]:
        return type(self), tuple(self)

    @property
    def end_lba(self) -> int:
        """One past the last sector addressed."""
        return self.lba + self.sectors

    def is_write(self) -> bool:
        return self.op is Op.WRITE


#: ``Trace.ops`` stores one byte per request, the index into this tuple
#: (the same 0 = read / 1 = write the binary trace format writes).
OPS = (Op.READ, Op.WRITE)


class Trace(Sequence[Request]):
    """A finite trace held as four parallel columns, not an object per request.

    ``times`` (``array('d')``), ``ops`` (``bytearray``: 0 read, 1 write),
    ``lbas`` and ``sectors`` (``array('q')``) take 25 bytes per request
    where a list of :class:`Request` takes about 150.  A ``Trace`` still
    *is* a ``Sequence[Request]``: indexing and iteration hand out requests,
    a slice is a ``Trace``, ``+`` concatenates with any request sequence
    on either side, and ``==`` holds against any sequence of equal
    requests.  Construction checks per column what ``Request.__new__``
    checks per object and records whether the times are non-decreasing
    (``time_ordered``), so consumers need not look again.  The columns
    are read-only by convention: nothing re-validates them afterwards,
    and the rows handed out are built by ``tuple.__new__``, skipping the
    per-object checks the columns already passed.
    """

    __slots__ = ("times", "ops", "lbas", "sectors", "time_ordered")

    def __init__(self, times: array[float], ops: bytearray,
                 lbas: array[int], sectors: array[int]) -> None:
        if not len(times) == len(ops) == len(lbas) == len(sectors):
            raise ValueError("trace columns differ in length")
        ordered = all(map(le, times, times[1:]))
        # No comparison with NaN is true, so an ordered column of two or
        # more holds none, and its two ends bound every value between.
        for time in times[:1] + times[-1:] if ordered else times:
            if not 0.0 <= time < inf:
                raise ValueError(
                    f"request time must be finite and >= 0, got {time}")
        if ops.translate(None, b"\0\1"):
            raise ValueError("trace ops must be 0 (read) or 1 (write)")
        if min(lbas, default=0) < 0:
            raise ValueError(f"negative LBA {min(lbas)}")
        if min(sectors, default=1) < 1:
            raise ValueError(f"sectors must be >= 1, got {min(sectors)}")
        self.times = times
        self.ops = ops
        self.lbas = lbas
        self.sectors = sectors
        self.time_ordered = ordered

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> Trace:
        """The columns of any iterable of requests; a ``Trace`` comes back as is."""
        if isinstance(requests, Trace):
            return requests
        times, ops = array("d"), bytearray()
        lbas, sectors = array("q"), array("q")
        for request in requests:
            times.append(request.time)
            ops.append(OPS.index(request.op))
            lbas.append(request.lba)
            sectors.append(request.sectors)
        return cls(times, ops, lbas, sectors)

    def __len__(self) -> int:
        return len(self.ops)

    @overload
    def __getitem__(self, index: int) -> Request: ...
    @overload
    def __getitem__(self, index: slice) -> Trace: ...

    def __getitem__(self, index: int | slice) -> Request | Trace:
        if isinstance(index, slice):
            return Trace(self.times[index], self.ops[index],
                         self.lbas[index], self.sectors[index])
        return tuple.__new__(Request, (self.times[index], OPS[self.ops[index]],
                                       self.lbas[index], self.sectors[index]))

    def __iter__(self) -> Iterator[Request]:
        return map(tuple.__new__, repeat(Request),
                   zip(self.times, map(OPS.__getitem__, self.ops),
                       self.lbas, self.sectors))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return (self.ops == other.ops and self.lbas == other.lbas
                    and self.sectors == other.sectors
                    and self.times == other.times)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __add__(self, other: Iterable[Request]) -> Trace:
        other = Trace.from_requests(other)
        return Trace(self.times + other.times, self.ops + other.ops,
                     self.lbas + other.lbas, self.sectors + other.sectors)

    def __radd__(self, other: Iterable[Request]) -> Trace:
        return Trace.from_requests(other) + self

    def __reduce__(self) -> tuple[type[Trace], tuple[object, ...]]:
        return Trace, (self.times, self.ops, self.lbas, self.sectors)

    def __repr__(self) -> str:
        return f"Trace({len(self)} requests)"


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of a trace (the quantities of Section 5.1)."""

    duration: float              #: seconds covered
    num_reads: int
    num_writes: int
    written_lba_fraction: float  #: distinct written LBAs / address space
    read_rate: float             #: reads per second
    write_rate: float            #: writes per second
    total_sectors_written: int
    total_sectors_read: int

    def as_dict(self) -> dict[str, float]:
        return {
            "duration_s": self.duration,
            "num_reads": self.num_reads,
            "num_writes": self.num_writes,
            "written_lba_fraction": self.written_lba_fraction,
            "read_rate_per_s": self.read_rate,
            "write_rate_per_s": self.write_rate,
            "total_sectors_written": self.total_sectors_written,
            "total_sectors_read": self.total_sectors_read,
        }
