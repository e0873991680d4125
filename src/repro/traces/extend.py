"""Deriving a virtually unlimited trace from a finite one.

Paper Section 5.1: "In order to come out the first failure time of FTL and
NFTL, a virtually unlimited experiment trace was also derived based on the
collected trace by randomly picking up any 10-minute trace segment in the
trace."  :class:`SegmentResampler` implements exactly that: it emits an
endless stream of randomly chosen 10-minute windows with timestamps
re-based so simulated time advances monotonically by one segment length
per segment.  The base trace is read as the columns of a
:class:`~repro.traces.model.Trace`: a window is two bisections of the
time column and a slice of each, handed out as a ``Trace`` itself, and
constructing a resampler over a ``Trace`` makes no pass over the base.
"""

from __future__ import annotations

import bisect
import random
from array import array
from dataclasses import dataclass
from itertools import chain, repeat, starmap
from typing import Iterator, Sequence

from repro.traces.model import Request, Trace
from repro.util.rng import make_rng, uniform

#: The paper's segment length: 10 minutes.
SEGMENT_SECONDS = 600.0


@dataclass
class SegmentResampler:
    """Endless trace built from random fixed-length segments of a base trace.

    Parameters
    ----------
    base:
        The finite base trace, time-ordered: a ``Trace``, or any other
        request sequence (converted to one at construction).
    segment:
        Segment length in seconds (paper: 600).
    rng:
        Seeded randomness for segment starts.

    Notes
    -----
    Segment boundaries land anywhere in ``[0, duration - segment]``; empty
    segments (quiet periods of the base trace) still advance simulated time
    by a full segment, so long-run request rates match the base trace.
    """

    base: Sequence[Request]
    segment: float = SEGMENT_SECONDS
    rng: random.Random | None = None

    def __post_init__(self) -> None:
        if not self.base:
            raise ValueError("base trace is empty")
        if self.segment <= 0:
            raise ValueError(f"segment length must be positive, got {self.segment}")
        # Any other request sequence becomes columns here, once; a Trace
        # passes through and already knows whether it is ordered.
        self._trace = trace = Trace.from_requests(self.base)
        if not trace.time_ordered:
            raise ValueError("base trace is not time-ordered")
        self.duration = trace.times[-1]
        if self.duration < self.segment:
            raise ValueError(
                f"base trace covers {self.duration:.0f}s, shorter than one "
                f"{self.segment:.0f}s segment"
            )
        if self.rng is None:
            self.rng = make_rng(None)
        self.segments_emitted = 0

    def next_segment(self) -> Trace:
        """The next segment's requests on the global clock, as columns.

        The segment's clock base is ``segments_emitted * segment`` — exact
        float arithmetic identical to the cumulative ``+= segment`` it
        replaced (the paper's 600.0 s segment is exactly representable, so
        ``n * 600.0`` equals the running sum bit for bit) — which is what
        lets a restored resampler resume mid-stream: ``segments_emitted``
        plus the RNG state fully determine every future request.

        The segment is the base's column slices with the time column
        re-based, so it passes the same column checks as any ``Trace``;
        rounding is monotone, so the re-based times stay ordered and only
        their two ends are range-checked.
        """
        assert self.rng is not None
        clock = float(self.segments_emitted * self.segment)
        start = uniform(self.rng, 0.0, self.duration - self.segment)
        trace = self._trace
        lo = bisect.bisect_left(trace.times, start)
        hi = bisect.bisect_left(trace.times, start + self.segment)
        # clock + (time - start), one C call per operation; clock is a
        # float even for an int segment, or its __add__ would refuse one.
        times = array("d", map(clock.__add__,
                               map(start.__rsub__, trace.times[lo:hi])))
        self.segments_emitted += 1
        return Trace(times, trace.ops[lo:hi], trace.lbas[lo:hi],
                     trace.sectors[lo:hi])

    def iter_requests(self) -> Iterator[Request]:
        """Yield requests forever; ``.time`` grows monotonically.

        Each emitted request keeps its offset within the chosen segment,
        shifted onto the global clock.  A segment is drawn only once the
        previous one is used up, and the requests between are chained in
        C, with no Python frame per request.
        """
        return chain.from_iterable(starmap(self.next_segment, repeat(())))

    def __iter__(self) -> Iterator[Request]:
        return self.iter_requests()

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Freeze the stream position: segment count plus RNG state.

        Only valid at a segment boundary (between ``next_segment`` calls),
        which is where the checkpoint runner takes snapshots.
        """
        from repro.util.rng import rng_state_to_json

        assert self.rng is not None
        return {
            "base_len": len(self.base),
            "segment": self.segment,
            "segments_emitted": self.segments_emitted,
            "rng": rng_state_to_json(self.rng),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`; rejects base-trace mismatches."""
        from repro.util.rng import rng_state_from_json

        if state["base_len"] != len(self.base):
            raise ValueError(
                f"resampler snapshot covers a base trace of "
                f"{state['base_len']} requests, this one has {len(self.base)}"
            )
        if state["segment"] != self.segment:
            raise ValueError(
                f"resampler snapshot segment {state['segment']} does not "
                f"match {self.segment}"
            )
        assert self.rng is not None
        self.segments_emitted = state["segments_emitted"]  # type: ignore[assignment]
        self.rng.setstate(rng_state_from_json(state["rng"]))  # type: ignore[arg-type]
