"""Workload substrate: trace model, generators, resampling, I/O.

The paper's evaluation (Section 5.1) replays a month-long mobile-PC trace
and derives a "virtually unlimited" trace from it by resampling random
10-minute segments.  This package provides the columnar trace model
(:mod:`repro.traces.model`), every workload generator
(:mod:`repro.traces.generator`: a faithful synthetic stand-in for the
paper's trace — see DESIGN.md, Substitutions — and the five synthetic
shapes, each finite output a :class:`Trace`), the resampler
(:mod:`repro.traces.extend`), trace files (:mod:`repro.traces.io`), and
validation statistics (:mod:`repro.traces.stats`).
"""

from repro.traces.extend import SEGMENT_SECONDS, SegmentResampler
from repro.traces.generator import DAY, MONTH, MobilePCWorkload, WorkloadParams
from repro.traces.io import (
    iter_trace_binary,
    iter_trace_csv,
    load_trace,
    save_trace,
    save_trace_binary,
    save_trace_csv,
)
from repro.traces.model import Op, Request, Trace, TraceSummary
from repro.traces.stats import (
    sequentiality,
    summarize,
)

__all__ = [
    "DAY",
    "MONTH",
    "MobilePCWorkload",
    "Op",
    "Request",
    "SEGMENT_SECONDS",
    "SegmentResampler",
    "Trace",
    "TraceSummary",
    "WorkloadParams",
    "iter_trace_binary",
    "iter_trace_csv",
    "load_trace",
    "save_trace",
    "save_trace_binary",
    "save_trace_csv",
    "sequentiality",
    "summarize",
]
