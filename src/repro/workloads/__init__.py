"""The workload shape names, re-exported from :mod:`repro.traces.generator`.

The shapes — hotspot, sequential, uniform, mixed read/write, and the
phase-shifting migrating hot set — live beside the mobile-PC model in
:mod:`repro.traces.generator`; import them from there.  This package
stays only because the benchmark harness (``bench/workloads.py``)
imports ``ShapeParams`` and ``make_shape`` from it.
"""

from repro.traces.generator import (
    DEFAULT_PHASE_PERIOD,
    DEFAULT_THETA,
    SHAPE_NAMES,
    HotspotWorkload,
    MixedWorkload,
    PhaseShiftingWorkload,
    SequentialStreamWorkload,
    ShapeParams,
    UniformAccessWorkload,
    WorkloadShape,
    make_shape,
)

__all__ = [
    "DEFAULT_PHASE_PERIOD",
    "DEFAULT_THETA",
    "HotspotWorkload",
    "MixedWorkload",
    "PhaseShiftingWorkload",
    "SHAPE_NAMES",
    "SequentialStreamWorkload",
    "ShapeParams",
    "UniformAccessWorkload",
    "WorkloadShape",
    "make_shape",
]
