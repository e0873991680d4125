"""Event bus: one ordered op buffer between emit sites and subscribers.

Instrumented components hold either a live bus or ``None``, so the
disabled hot path is a single ``if self._obs is not None:`` test with no
attribute chasing, no event construction, and no call dispatch.  Three
things keep the *enabled* path cheap (DESIGN.md §5f):

* **Kind masks** — every event kind owns one bit (:data:`M_READ`,
  :data:`M_PROGRAM`, ...), and ``bus.mask`` is the union of what the
  current subscribers want.  Emit sites guard with
  ``if obs is not None and obs.mask & M_READ:`` so a kind no subscriber
  cares about costs one integer test.  An empty subscriber set has mask
  0, so a bus with nobody listening never timestamps or allocates.
* **One ordered op buffer** — every emission appends one flat tuple to
  a single list that keeps global emission order: ``(kind_id, ts, shard,
  fields...)`` for the hot kinds (read, program, erase — no
  :class:`~repro.obs.events.Event`, no :class:`TraceRecord`) and
  ``(K_OBJ, ts, shard, event)`` for everything else.  The list drains to
  every subscriber's ``consume_batch`` when it reaches
  :data:`BATCH_CAPACITY`, on :meth:`EventBus.flush`, and around any
  subscription change; nothing is delivered in between, so whoever reads
  subscriber state flushes first (the ``Telemetry`` facade does).  A
  plain callable may subscribe too: it receives the same ops rehydrated
  into :class:`TraceRecord` objects, in emission order, at flush.
* **Pulled hot counters** — the hot kinds carry nothing the device does
  not already know: the chip's cumulative ``OpCounters`` and wear state
  give the read/program/erase totals and the per-block erase peak
  exactly.  The factory registers each chip as a *hot source* and the
  metrics collector reads those totals at flush time; it never declares
  interest in :data:`HOT_KINDS`, so with only a collector attached the
  emit-site mask test fails and metrics cost one integer test per
  operation.  Trace exporters declare hot interest and stream every op.

This is the one delivery path left of three.  A synchronous
record-per-emission mode and a per-kind tally mode sat beside the
buffer; measured at 08b1d6f (seed 1, the six benchmark workloads) the
tally lists delivered 0 entries under the shipped ``Telemetry()`` — its
collector always pulls — while 2,172-18,731 cold ops per workload rode
the op buffer, no caller selected the synchronous mode, and on the one
traffic where hot kinds flow (``Telemetry.to_directory``) the buffer was
1.64-1.82x faster than synchronous dispatch, artifacts byte-identical.

Timestamps come from an injectable ``clock`` callable, not wall time:
the MTD wires it to its accumulated ``busy_time``, so
traces are in *simulated* seconds and runs are reproducible.  When no
subscriber needs timestamps (the collector declares ``needs_timestamps =
False``) the clock is never read.  Multi-channel arrays hand each shard
a :class:`ShardBus` view: same buffer, the shard's own tag and clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, Tuple, Union, runtime_checkable

from repro.obs.events import Erase, Event, Program, Read

Clock = Callable[[], float]

#: One buffered emission: ``(kind_id, ts, shard, fields...)`` for the hot
#: kinds, ``(K_OBJ, ts, shard, event)`` for everything else.
BatchOp = Tuple[Any, ...]

# -- batch kind ids ------------------------------------------------------
#: Buffered op carries a full :class:`~repro.obs.events.Event` object.
K_OBJ = 0
#: Buffered op is a flat read: ``(K_READ, ts, shard, block, page)``.
K_READ = 1
#: Flat program: ``(K_PROGRAM, ts, shard, block, page, lba)``.
K_PROGRAM = 2
#: Flat erase: ``(K_ERASE, ts, shard, block, count)``.
K_ERASE = 3

# -- per-kind enable masks ----------------------------------------------
M_READ = 1 << 0
M_PROGRAM = 1 << 1
M_ERASE = 1 << 2
M_GC_START = 1 << 3
M_GC_END = 1 << 4
M_GC_SCAN = 1 << 5
M_SWL_INVOKE = 1 << 6
M_BET_RESET = 1 << 7
M_FAULT_INJECTED = 1 << 8
M_RECOVERY = 1 << 9
M_POWER_LOSS = 1 << 10
M_QUEUE_DEPTH = 1 << 11

#: Every kind bit set.
ALL_EVENTS = (1 << 12) - 1

#: The per-operation kinds a device emits on its own hot path.  A
#: subscriber that reads them from device state instead (see
#: ``register_hot_source``) leaves them out of its interest so the emit
#: sites never fire at all.
HOT_KINDS = M_READ | M_PROGRAM | M_ERASE

#: Emissions held before an automatic flush.
BATCH_CAPACITY = 4096


@dataclass(frozen=True)
class TraceRecord:
    """One event as a plain-callable subscriber sees it; ``ts`` is
    simulated seconds (monotonic per shard: that shard's busy time)."""

    ts: float
    shard: int
    event: Event


@runtime_checkable
class BatchSubscriber(Protocol):
    """What the bus delivers to: whole batches, plus two declarations."""

    #: Union of the ``M_*`` bits this subscriber wants emitted.
    interest_mask: int
    #: ``False`` lets a bus with no other subscriber skip its clock.
    needs_timestamps: bool

    def consume_batch(self, batch: list[BatchOp]) -> None:
        """Take ``batch`` in emission order; do not retain the list."""


Subscriber = Union[BatchSubscriber, Callable[[TraceRecord], None]]


def _op_to_record(op: BatchOp) -> TraceRecord:
    """Rehydrate a buffered op into the per-event record form."""
    kind = op[0]
    if kind == K_READ:
        return TraceRecord(op[1], op[2], Read(op[3], op[4]))
    if kind == K_PROGRAM:
        return TraceRecord(op[1], op[2], Program(op[3], op[4], op[5]))
    if kind == K_ERASE:
        return TraceRecord(op[1], op[2], Erase(op[3], op[4]))
    return TraceRecord(op[1], op[2], op[3])


class _RecordSubscriber:
    """Adapts a plain callable: every kind, one record per op, at flush."""

    interest_mask = ALL_EVENTS
    needs_timestamps = True

    def __init__(self, callback: Callable[[TraceRecord], None]) -> None:
        self._callback = callback

    def consume_batch(self, batch: list[BatchOp]) -> None:
        callback = self._callback
        for op in batch:
            callback(_op_to_record(op))


class _Emitter:
    """The emission surface the root bus and its shard views share.

    Each emitter is one body — append a flat op to the root's buffer,
    flush when it is full — so components are topology-blind.
    """

    _root: "EventBus"
    #: Tag stamped on every op emitted here (0 on the root bus).
    shard: int
    #: Current simulated time; ``None`` until an MTD wires it to its
    #: ``busy_time`` (a view then falls back to the root's).
    clock: Optional[Clock]
    #: Union of the subscribers' kind interests — a plain attribute,
    #: because emit sites test their kind bit against it per operation.
    mask: int

    def now(self) -> float:
        """Current simulated time, 0.0 before a clock is wired."""
        clock = self.clock
        if clock is None:
            clock = self._root.clock
        return clock() if clock is not None else 0.0

    def emit(self, event: Event) -> None:
        """Buffer ``event``, timestamped and shard-tagged; with no
        subscribers, return before touching the clock or allocating."""
        root = self._root
        if not root._sinks:
            return
        buffer = root._buffer
        ts = self.now() if root._need_ts else 0.0
        buffer.append((K_OBJ, ts, self.shard, event))
        if len(buffer) >= BATCH_CAPACITY:
            root.flush()

    # The hot emitters run behind an emit-site mask test, which only a
    # subscriber can make pass, so they skip the subscriber check.
    def emit_read(self, block: int, page: int) -> None:
        """Hot-path read emission: no Event, no TraceRecord."""
        root = self._root
        buffer = root._buffer
        ts = self.now() if root._need_ts else 0.0
        buffer.append((K_READ, ts, self.shard, block, page))
        if len(buffer) >= BATCH_CAPACITY:
            root.flush()

    def emit_program(self, block: int, page: int, lba: int) -> None:
        """Hot-path program emission: no Event, no TraceRecord."""
        root = self._root
        buffer = root._buffer
        ts = self.now() if root._need_ts else 0.0
        buffer.append((K_PROGRAM, ts, self.shard, block, page, lba))
        if len(buffer) >= BATCH_CAPACITY:
            root.flush()

    def emit_erase(self, block: int, count: int) -> None:
        """Hot-path erase emission: no Event, no TraceRecord."""
        root = self._root
        buffer = root._buffer
        ts = self.now() if root._need_ts else 0.0
        buffer.append((K_ERASE, ts, self.shard, block, count))
        if len(buffer) >= BATCH_CAPACITY:
            root.flush()

    def register_hot_source(self, source: Any, shard: Optional[int] = None) -> None:
        """Register a device whose hot counters can be read from state.

        ``source`` exposes cumulative ``counters`` (``reads``,
        ``programs``, ``erases``) and ``max_erase_count()`` — the facts
        the hot kinds carry — for the collector to pull at flush time.
        Filed under this emitter's shard tag unless ``shard`` is given;
        re-registering a shard replaces its source.
        """
        self._root.hot_sources[self.shard if shard is None else shard] = source

    def for_shard(self, shard: int, clock: Optional[Clock] = None) -> "ShardBus":
        """A view tagging emissions with ``shard``, timed by ``clock``
        (each array channel keeps its own busy-time tally)."""
        return ShardBus(self._root, shard, clock)


class EventBus(_Emitter):
    """Owns the subscribers and the op buffer they are fed from."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._root = self
        self.shard = 0
        self.clock = clock
        self.mask = 0
        #: As registered, and the batch consumer standing in for each.
        self._subscribers: list[Subscriber] = []
        self._sinks: tuple[BatchSubscriber, ...] = ()
        self._need_ts = False
        self._buffer: list[BatchOp] = []
        #: Shard views handed out, kept so their ``mask`` stays current.
        self._views: list[ShardBus] = []
        #: Per-shard devices registered by :meth:`register_hot_source`.
        self.hot_sources: dict[int, Any] = {}

    def _rewire(self, sinks: list[BatchSubscriber]) -> None:
        """Adopt ``sinks``; recompute the mask here and on every view."""
        self._sinks = tuple(sinks)
        self._need_ts = any(sink.needs_timestamps for sink in sinks)
        mask = 0
        for sink in sinks:
            mask |= sink.interest_mask
        self.mask = mask
        for view in self._views:
            view.mask = mask

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register ``subscriber``; duplicates are allowed and fire twice.

        Flushes first, like :meth:`unsubscribe`: a subscriber sees
        exactly the emissions made while it was attached.
        """
        self.flush()
        self._subscribers.append(subscriber)
        sink: BatchSubscriber = (
            subscriber if isinstance(subscriber, BatchSubscriber)
            else _RecordSubscriber(subscriber)
        )
        self._rewire([*self._sinks, sink])

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove one registration of ``subscriber``; absent is a no-op."""
        self.flush()
        try:
            index = self._subscribers.index(subscriber)
        except ValueError:
            return
        del self._subscribers[index]
        self._rewire([*self._sinks[:index], *self._sinks[index + 1:]])

    def flush(self) -> None:
        """Drain buffered emissions to every subscriber, in order.

        The buffer is swapped out first: a subscriber that emits or
        (un)subscribes mid-delivery cannot re-enter this batch, and the
        in-flight loop keeps the subscriber tuple it started with.
        """
        batch = self._buffer
        if not batch:
            return
        self._buffer = []
        for sink in self._sinks:
            sink.consume_batch(batch)


class ShardBus(_Emitter):
    """Shard-tagged view over a root :class:`EventBus`."""

    def __init__(self, parent: EventBus, shard: int,
                 clock: Optional[Clock] = None) -> None:
        self._root = parent
        self.shard = shard
        self.clock = clock
        self.mask = parent.mask
        parent._views.append(self)

    def flush(self) -> None:
        self._root.flush()


#: A live bus an instrumented component may hold.
BusLike = EventBus | ShardBus
