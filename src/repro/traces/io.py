"""Trace file I/O.

Two interchangeable formats:

* **CSV** — one request per line (``time,op,lba,sectors``), human-readable,
  loads anywhere.
* **Binary** — fixed 24-byte little-endian records behind a 16-byte
  header; fixed-width, self-validating (magic, version, and a record
  count the file must match exactly — neither fewer bytes nor more), and
  much faster to parse for month-long traces.

Both round-trip exactly through :func:`save_trace` / :func:`load_trace`,
which dispatch on the file extension (``.csv`` vs anything else): CSV
times are written with ``repr``, so a loaded trace has the
``trace_digest`` of the one saved.  Savers take any iterable of requests;
:func:`load_trace` returns a :class:`~repro.traces.model.Trace`, every
record of which passed the validating ``Request`` constructor.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path
from typing import Iterable, Iterator

from repro.traces.model import Op, Request, Trace

_MAGIC = b"FTRC"
_HEADER = struct.Struct("<4sIQ")       # magic, version, record count
_RECORD = struct.Struct("<dBxxxIQ")    # time, op, sectors, lba
_VERSION = 1


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def save_trace_csv(path: str | Path, requests: Iterable[Request]) -> int:
    """Write a trace as CSV; returns the number of records written."""
    count = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "op", "lba", "sectors"])
        for request in requests:
            writer.writerow(
                [repr(request.time), request.op.value, request.lba, request.sectors]
            )
            count += 1
    return count


def iter_trace_csv(path: str | Path) -> Iterator[Request]:
    """Stream a CSV trace without materializing it."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["time", "op", "lba", "sectors"]:
            raise ValueError(f"{path}: not a trace CSV (header {header})")
        for line_no, row in enumerate(reader, start=2):
            try:
                yield Request(
                    time=float(row[0]),
                    op=Op(row[1]),
                    lba=int(row[2]),
                    sectors=int(row[3]),
                )
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{line_no}: malformed record {row}") from exc


# ----------------------------------------------------------------------
# Binary
# ----------------------------------------------------------------------
def save_trace_binary(path: str | Path, requests: Iterable[Request]) -> int:
    """Write a trace in the compact binary format; returns record count."""
    records = [
        _RECORD.pack(request.time, 1 if request.is_write() else 0,
                     request.sectors, request.lba)
        for request in requests
    ]
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _VERSION, len(records)))
        handle.writelines(records)
    return len(records)


def iter_trace_binary(path: str | Path) -> Iterator[Request]:
    """Stream a binary trace."""
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated trace header")
        magic, version, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad trace magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported trace version {version}")
        for index in range(count):
            raw = handle.read(_RECORD.size)
            if len(raw) != _RECORD.size:
                raise ValueError(f"{path}: truncated at record {index}/{count}")
            time, is_write, sectors, lba = _RECORD.unpack(raw)
            yield Request(
                time=time,
                op=Op.WRITE if is_write else Op.READ,
                lba=lba,
                sectors=sectors,
            )
        if handle.read(1):
            raise ValueError(
                f"{path}: bytes remain after the {count} declared records")


# ----------------------------------------------------------------------
# Extension dispatch
# ----------------------------------------------------------------------
def save_trace(path: str | Path, requests: Iterable[Request]) -> int:
    """Save in the format implied by the extension (``.csv`` or binary)."""
    if str(path).endswith(".csv"):
        return save_trace_csv(path, requests)
    return save_trace_binary(path, requests)


def load_trace(path: str | Path) -> Trace:
    """Load a whole trace file (either format) into memory."""
    if str(path).endswith(".csv"):
        return Trace.from_requests(iter_trace_csv(path))
    return Trace.from_requests(iter_trace_binary(path))
