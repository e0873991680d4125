"""Trace exporters: JSONL, Chrome ``trace_event`` JSON, and log routing.

Each exporter is a bus subscriber; attach any combination to one bus.
The two file exporters consume the bus's flat op batches directly;
:class:`LogExporter` is a plain callable fed rehydrated records.

* :class:`JsonlTraceExporter` streams one JSON object per event to a
  text file — the lossless archival format, `jq`-friendly.
* :class:`ChromeTraceExporter` buffers Chrome ``trace_event`` objects
  (loadable in Perfetto / ``chrome://tracing``).  The clock is simulated
  device time — ``ts`` is busy-time seconds scaled to microseconds — so
  a trace of a deterministic run is itself deterministic.  GC passes
  become duration (``B``/``E``) slices per shard-thread, SWL and fault
  activity become instant events, and erase totals become a counter
  (``C``) track per shard.
* :class:`LogExporter` routes events onto the ``repro.*`` logging
  channels from :mod:`repro.util.diagnostics`, so bus telemetry and
  `--log-level` output come from the same event stream instead of
  diverging call sites.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import IO, Union

from repro.obs.bus import (
    ALL_EVENTS,
    K_ERASE,
    K_OBJ,
    K_PROGRAM,
    K_READ,
    M_PROGRAM,
    M_READ,
    BatchOp,
    TraceRecord,
)
from repro.obs.events import (
    BetReset,
    Erase,
    Event,
    FaultInjected,
    GcEnd,
    GcStart,
    PowerLoss,
    QueueDepth,
    Recovery,
    SwlInvoke,
)
from repro.util.diagnostics import get_logger


class JsonlTraceExporter:
    """Stream every op as one JSON line: ``{ts, shard, kind, ...}``."""

    interest_mask = ALL_EVENTS
    needs_timestamps = True

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.records_written = 0

    def consume_batch(self, batch: list[BatchOp]) -> None:
        """Serialise a batch, one line per op in emission order.

        Hot kinds build their JSON dicts straight from the flat tuple
        (same key order as ``payload()``), skipping event rehydration.
        """
        write = self._stream.write
        dumps = json.dumps
        for op in batch:
            kind = op[0]
            if kind == K_READ:
                line: dict[str, object] = {
                    "ts": op[1], "shard": op[2], "kind": "read",
                    "block": op[3], "page": op[4]}
            elif kind == K_PROGRAM:
                line = {"ts": op[1], "shard": op[2], "kind": "program",
                        "block": op[3], "page": op[4], "lba": op[5]}
            elif kind == K_ERASE:
                line = {"ts": op[1], "shard": op[2], "kind": "erase",
                        "block": op[3], "count": op[4]}
            else:
                event = op[3]
                line = {"ts": op[1], "shard": op[2], "kind": event.kind}
                line.update(event.payload())
            write(dumps(line) + "\n")
        self.records_written += len(batch)

    def close(self) -> None:
        """Flush and (if we opened it) close the underlying stream."""
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()


class ChromeTraceExporter:
    """Buffer Chrome ``trace_event`` objects; ``dump()`` writes the file.

    Timestamps are simulated-time microseconds.  One process (pid 0,
    named for the run) with one thread per shard keeps multi-channel
    traces readable as parallel tracks.
    """

    #: Per-page read/program volume would dwarf the interesting tracks;
    #: a bus whose only subscribers declare this mask skips those kinds
    #: at the emit site (the JSONL trace keeps them when attached).
    interest_mask = ALL_EVENTS & ~(M_READ | M_PROGRAM)
    needs_timestamps = True

    def __init__(self, run_name: str = "repro") -> None:
        self.run_name = run_name
        self._events: list[dict[str, object]] = []
        self._shards_named: set[int] = set()
        self._erases_by_shard: dict[int, int] = {}

    def _ensure_thread(self, shard: int) -> None:
        if shard in self._shards_named:
            return
        self._shards_named.add(shard)
        self._events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": shard,
            "args": {"name": f"shard {shard}"},
        })

    def consume_batch(self, batch: list[BatchOp]) -> None:
        """Turn a batch into trace events, in emission order.

        Reads and programs that ride in a shared buffer (because another
        subscriber wants them) only name their shard's thread.
        """
        for op in batch:
            kind, shard = op[0], op[2]
            self._ensure_thread(shard)
            if kind == K_ERASE:
                self._count_erase(op[1] * 1e6, shard)
            elif kind == K_OBJ:
                self._serialise(op[1] * 1e6, shard, op[3])

    def _count_erase(self, ts: float, shard: int) -> None:
        total = self._erases_by_shard.get(shard, 0) + 1
        self._erases_by_shard[shard] = total
        self._events.append(
            {"pid": 0, "tid": shard, "ts": ts, "ph": "C", "cat": "flash",
             "name": "erases", "args": {"erases": total}})

    def _serialise(self, ts: float, shard: int, event: Event) -> None:
        base: dict[str, object] = {"pid": 0, "tid": shard, "ts": ts}
        if isinstance(event, GcStart):
            self._events.append(
                {**base, "ph": "B", "cat": "gc",
                 "name": f"GC {event.reason}",
                 "args": {"victim": event.victim}})
        elif isinstance(event, GcEnd):
            self._events.append(
                {**base, "ph": "E", "cat": "gc",
                 "name": f"GC {event.reason}",
                 "args": {"victim": event.victim, "copies": event.copies,
                          "erases": event.erases}})
        elif isinstance(event, Erase):
            self._count_erase(ts, shard)
        elif isinstance(event, QueueDepth):
            # Per-channel occupancy as a counter track, so service-mode
            # traces show queue build-up alongside the GC slices that
            # cause it (tail-latency forensics in one Perfetto view).
            self._events.append(
                {**base, "ph": "C", "cat": "service", "name": "queue depth",
                 "args": {"depth": event.depth}})
            self._events.append(
                {**base, "ph": "C", "cat": "service", "name": "queue stalls",
                 "args": {"stalls": event.stalls}})
        elif isinstance(event, (SwlInvoke, BetReset, FaultInjected,
                                Recovery, PowerLoss)):
            self._events.append(
                {**base, "ph": "i", "s": "t",
                 "cat": "swl" if isinstance(event, (SwlInvoke, BetReset))
                 else "fault",
                 "name": event.kind, "args": event.payload()})
        # Read/Program are deliberately not serialised: per-page volume
        # would dwarf the interesting tracks; the JSONL trace keeps them.

    def trace_object(self) -> dict[str, object]:
        """The complete Chrome trace document."""
        header = [{
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": self.run_name},
        }]
        return {"traceEvents": header + self._events,
                "displayTimeUnit": "ms"}

    def dump(self, path: Union[str, Path]) -> None:
        """Write the trace document as JSON to ``path``."""
        Path(path).write_text(json.dumps(self.trace_object()) + "\n",
                              encoding="utf-8")


class LogExporter:
    """Route bus events onto the ``repro.*`` diagnostics channels.

    SWL activity goes to ``repro.leveler`` and fault activity to
    ``repro.fault`` — the same channels library code logs on — so
    enabling telemetry does not create a second, divergent narrative.
    """

    def __init__(self, level: int = logging.INFO) -> None:
        self.level = level
        self._leveler = get_logger("leveler")
        self._fault = get_logger("fault")
        self._trace = get_logger("obs")

    def __call__(self, record: TraceRecord) -> None:
        event = record.event
        if isinstance(event, SwlInvoke):
            self._leveler.log(
                self.level,
                "t=%.3f shard=%d swl_invoke findex=%d unevenness=%.3f "
                "latency=%d erases",
                record.ts, record.shard, event.findex, event.unevenness,
                event.latency_erases)
        elif isinstance(event, BetReset):
            self._leveler.log(
                self.level,
                "t=%.3f shard=%d bet_reset resets=%d findex=%d",
                record.ts, record.shard, event.resets, event.findex)
        elif isinstance(event, FaultInjected):
            self._fault.log(
                self.level,
                "t=%.3f shard=%d fault_injected fault=%s block=%d page=%d",
                record.ts, record.shard, event.fault, event.block, event.page)
        elif isinstance(event, (Recovery, PowerLoss)):
            self._fault.log(self.level, "t=%.3f shard=%d %s %s",
                            record.ts, record.shard, event.kind,
                            event.payload())
        else:
            self._trace.debug("t=%.3f shard=%d %s %s", record.ts,
                              record.shard, event.kind, event.payload())

    #: alias so LogExporter can sit in exporter lists that get ``close()``d
    def close(self) -> None:
        pass
