"""Trace statistics.

Computes the aggregate numbers the paper reports about its trace (Section
5.1) from any request sequence, so a synthetic trace can be validated
against the published targets: written-LBA coverage 36.62 %, 1.82 writes/s,
1.97 reads/s.
"""

from __future__ import annotations

from typing import Sequence

from repro.traces.model import Request, TraceSummary


def summarize(requests: Sequence[Request], total_sectors: int) -> TraceSummary:
    """Aggregate statistics of a trace over a ``total_sectors`` LBA space.

    Distinct-written-LBA counting is interval-based, so month-long traces
    summarize in seconds without building a 2M-element set.
    """
    if not requests:
        raise ValueError("empty trace")
    if total_sectors <= 0:
        raise ValueError(f"total_sectors must be positive, got {total_sectors}")
    num_reads = 0
    num_writes = 0
    sectors_read = 0
    sectors_written = 0
    write_intervals: list[tuple[int, int]] = []
    for request in requests:
        if request.is_write():
            num_writes += 1
            sectors_written += request.sectors
            write_intervals.append((request.lba, request.end_lba))
        else:
            num_reads += 1
            sectors_read += request.sectors
    duration = requests[-1].time - requests[0].time
    if duration <= 0:
        duration = 1e-9  # degenerate single-instant trace
    return TraceSummary(
        duration=duration,
        num_reads=num_reads,
        num_writes=num_writes,
        written_lba_fraction=_covered(write_intervals) / total_sectors,
        read_rate=num_reads / duration,
        write_rate=num_writes / duration,
        total_sectors_written=sectors_written,
        total_sectors_read=sectors_read,
    )


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of half-open intervals."""
    if not intervals:
        return 0
    intervals.sort()
    covered = 0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    return covered + (current_end - current_start)


def sequentiality(requests: Sequence[Request], *, window: int = 1) -> float:
    """Fraction of write requests that continue a recent write's run.

    A proxy for the paper's observation that "hot data were often written
    in burst" — high sequentiality means whole blocks turn invalid
    together, which is what keeps FTL's baseline copy cost low.

    ``window`` is how many preceding writes count as "recent": 1 detects
    only strictly back-to-back runs; a larger window also catches streams
    that interleave (several files being written concurrently), which is
    how bursts appear in real multi-stream traces.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    writes = [request for request in requests if request.is_write()]
    if len(writes) < 2:
        return 0.0
    recent_ends: list[int] = []
    sequential = 0
    for request in writes:
        if request.lba in recent_ends:
            sequential += 1
        recent_ends.append(request.end_lba)
        if len(recent_ends) > window:
            recent_ends.pop(0)
    return sequential / (len(writes) - 1)
