"""Typed telemetry events — the vocabulary of the observability layer.

Every instrumented component of the stack (chip, Cleaner, drivers, SW
Leveler, fault injector) emits one of these small frozen dataclasses to an
:class:`~repro.obs.bus.EventBus`.  The taxonomy follows the quantities the
paper reasons about longitudinally:

* device activity — :class:`Read`, :class:`Program`, :class:`Erase`;
* garbage collection — :class:`GcStart`/:class:`GcEnd` (with a ``reason``
  attributing the run to free-space pressure, dead-block reclaim, a fold,
  SW-Leveler force, or fault recovery) and :class:`GcScan` (victim
  selection cost);
* static wear leveling — :class:`SwlInvoke` (one SWL-Procedure run) and
  :class:`BetReset` (one completed resetting interval);
* robustness — :class:`FaultInjected`, :class:`Recovery`,
  :class:`PowerLoss`.

Events are plain data: no behaviour, no references into live objects, so
exporters may retain them indefinitely.  Construction happens **only** on
the enabled path — instrumentation sites guard with ``if obs is not None``
before building an event, which is what keeps the disabled stack free of
per-operation allocations (see DESIGN.md §5c, the overhead contract).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar


@dataclass(frozen=True)
class Event:
    """Base class of all telemetry events.

    ``kind`` is a class-level tag used by exporters and filters; it never
    occupies per-instance storage.
    """

    kind: ClassVar[str] = "event"

    def payload(self) -> dict[str, object]:
        """The event's fields as a plain dict (for JSON exporters)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Read(Event):
    """One page read completed on a chip."""

    kind: ClassVar[str] = "read"
    block: int
    page: int


@dataclass(frozen=True)
class Program(Event):
    """One page program completed on a chip."""

    kind: ClassVar[str] = "program"
    block: int
    page: int
    lba: int


@dataclass(frozen=True)
class Erase(Event):
    """One block erase completed; ``count`` is the block's new wear."""

    kind: ClassVar[str] = "erase"
    block: int
    count: int


@dataclass(frozen=True)
class GcStart(Event):
    """A garbage-collection pass begins.

    ``reason`` attributes the pass: ``"free-space"`` (the Section 5.1
    trigger), ``"dead"`` (erase-on-demand of a fully invalid block),
    ``"fold"`` (NFTL replacement-full merge), ``"swl"`` (a forced recycle
    requested by SWL-Procedure), or ``"recovery"`` (draining a faulted
    block).  ``victim`` is a physical block for FTL and a virtual block
    address for NFTL.
    """

    kind: ClassVar[str] = "gc_start"
    reason: str
    victim: int


@dataclass(frozen=True)
class GcEnd(Event):
    """The matching end of a :class:`GcStart`, with its measured cost."""

    kind: ClassVar[str] = "gc_end"
    reason: str
    victim: int
    copies: int     #: live pages moved by this pass
    erases: int     #: block erases performed by this pass


@dataclass(frozen=True)
class GcScan(Event):
    """One Cleaner victim-selection scan (cyclic/greedy, Section 5.1)."""

    kind: ClassVar[str] = "gc_scan"
    mode: str       #: "least-worn", "first-fit", or "fallback"
    probes: int     #: ring positions this scan's revolution accounts for
    victim: int     #: selected unit, -1 when the scan found none


@dataclass(frozen=True)
class SwlInvoke(Event):
    """One SWL-Procedure run that did work (Algorithm 1).

    ``latency_erases`` counts block erases between the trigger firing and
    the procedure actually running — non-zero only when the host driver
    had the leveler suspended mid-GC (the deferred-check path).
    """

    kind: ClassVar[str] = "swl_invoke"
    findex: int
    unevenness: float   #: ecnt/fcnt at entry
    ecnt: int
    fcnt: int
    latency_erases: int


@dataclass(frozen=True)
class BetReset(Event):
    """A resetting interval completed (Algorithm 1, steps 4-7)."""

    kind: ClassVar[str] = "bet_reset"
    resets: int     #: cumulative reset count
    findex: int     #: the randomly re-seeded cursor


@dataclass(frozen=True)
class FaultInjected(Event):
    """The injector delivered a fault (``fault``: erase/program/read)."""

    kind: ClassVar[str] = "fault_injected"
    fault: str
    block: int
    page: int       #: -1 for block-granular faults


@dataclass(frozen=True)
class Recovery(Event):
    """The driver performed a fault-recovery action.

    ``action``: ``"erase_retry"`` (transient erase re-attempted),
    ``"condemn"`` (retry budget exhausted, block awaiting retirement),
    ``"reissue"`` (a failed program re-driven to a fresh page), or
    ``"retire"`` (block permanently withdrawn from service).
    """

    kind: ClassVar[str] = "recovery"
    action: str
    block: int


@dataclass(frozen=True)
class PowerLoss(Event):
    """A scheduled power loss fired at chip-operation ``op_ordinal``."""

    kind: ClassVar[str] = "power_loss"
    op_ordinal: int


@dataclass(frozen=True)
class QueueDepth(Event):
    """A periodic per-channel queue-occupancy sample (service mode).

    Emitted by the open-loop service engine (:mod:`repro.service`): the
    channel rides the record's shard tag, ``depth`` is the number of
    requests in flight or waiting on that channel's FIFO at the sample
    instant, and ``stalls`` is the cumulative count of arrivals that hit
    the bounded queue's backpressure so far.
    """

    kind: ClassVar[str] = "queue_depth"
    depth: int
    stalls: int


#: All concrete event classes, keyed by their ``kind`` tag.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        Read, Program, Erase, GcStart, GcEnd, GcScan,
        SwlInvoke, BetReset, FaultInjected, Recovery, PowerLoss,
        QueueDepth,
    )
}
