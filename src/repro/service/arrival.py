"""Arrival-rate models for the open-loop service engine.

The closed-loop replay consumes trace timestamps as-is: each request
"arrives" whenever the trace says, and service is instantaneous.  Service
mode instead models *who generates load*:

* :func:`poisson_arrivals` — an open-loop Poisson process.  The standard
  model for thousands of independent clients: by the Palm–Khintchine
  theorem, the superposition of many sparse independent client streams
  approaches a Poisson process, so ``rate = clients / think_time``
  (see :func:`open_loop_rate`) simulates a whole client population
  without materializing one queue per client.  Open-loop means arrivals
  never slow down when the device backs up — exactly the regime that
  exposes tail-latency interference from GC and static wear leveling.
* :func:`trace_paced` — arrivals at the trace's own (optionally
  compressed) timestamps, preserving its burst structure.

Both re-time requests from an underlying stream (typically the endless
:class:`~repro.traces.extend.SegmentResampler`), keeping the *access
pattern* of the workload while replacing its *timing*.
"""

from __future__ import annotations

import random
from itertools import accumulate, repeat
from math import log
from operator import neg, truediv
from typing import Iterable, Iterator

from repro.traces.model import Request


def open_loop_rate(clients: int, think_time: float) -> float:
    """Aggregate request rate of ``clients`` independent clients.

    Each simulated client issues a request, waits ``think_time`` seconds
    on average, and repeats; the superposed arrival process is Poisson
    with this rate.
    """
    if clients <= 0:
        raise ValueError(f"clients must be positive, got {clients}")
    if think_time <= 0:
        raise ValueError(f"think_time must be positive, got {think_time}")
    return clients / think_time


def poisson_arrivals(
    requests: Iterable[Request],
    rate: float,
    rng: random.Random,
) -> Iterator[Request]:
    """Re-time ``requests`` as an open-loop Poisson stream of ``rate``/s.

    Inter-arrival gaps are exponential draws from ``rng`` (a dedicated
    stream — see :func:`repro.util.rng.spawn_rng` — so arrival timing
    never perturbs resampling or leveler randomness).  ``rate`` is
    checked here, before any request is drawn.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    # repro.util.rng.exponential as a chain of C calls, one random() per
    # gap: -log(1.0 - random()) / rate.  zip draws a gap only after a
    # request came: one draw per arrival.
    draws = iter(rng.random, None)
    gaps = map(truediv, map(neg, map(log, map((1.0).__sub__, draws))), repeat(rate))
    arrivals = accumulate(gaps)
    return (
        Request(now, op, lba, sectors)
        for (_, op, lba, sectors), now in zip(requests, arrivals)
    )


def trace_paced(
    requests: Iterable[Request],
    *,
    speedup: float = 1.0,
) -> Iterator[Request]:
    """Arrivals at the trace's own timestamps, compressed by ``speedup``.

    ``speedup=1`` preserves the recorded pacing (and burst structure);
    larger values replay the same pattern proportionally faster, the
    usual way to turn a lightly-loaded desktop trace into an overload
    experiment without synthesizing a new workload.  ``speedup`` is
    checked here, before any request is drawn.
    """
    if speedup <= 0:
        raise ValueError(f"speedup must be positive, got {speedup}")
    if speedup == 1.0:
        return iter(requests)
    return (
        Request(time / speedup, op, lba, sectors)
        for time, op, lba, sectors in requests
    )
