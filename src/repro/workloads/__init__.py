"""The multi-tenant layer over the workload shapes.

The shapes themselves — hotspot, sequential, uniform, mixed read/write,
and the phase-shifting migrating hot set — live beside the mobile-PC
model in :mod:`repro.traces.generator` and are re-exported here.  The
multiplexer (:mod:`repro.workloads.tenants`) interleaves N tenant shapes
onto regions of one device, and the runners
(:mod:`repro.workloads.runner`) drive them through the closed-loop
Simulator or the open-loop ServiceEngine with per-tenant wear and
latency attribution.

All randomness lives on dedicated ``"workload:*"`` RNG streams; replay
randomness is untouched (see DESIGN.md §5h).
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
from repro.workloads.runner import (
    MultiTenantReplayResult,
    MultiTenantServiceResult,
    run_multi_tenant_replay,
    run_multi_tenant_service,
)
from repro.workloads.tenants import (
    TENANT_POLICIES,
    MultiTenantWorkload,
    TenantSpec,
)

__all__ = [
    "DEFAULT_PHASE_PERIOD",
    "DEFAULT_THETA",
    "HotspotWorkload",
    "MixedWorkload",
    "MultiTenantReplayResult",
    "MultiTenantServiceResult",
    "MultiTenantWorkload",
    "PhaseShiftingWorkload",
    "SHAPE_NAMES",
    "SequentialStreamWorkload",
    "ShapeParams",
    "TENANT_POLICIES",
    "TenantSpec",
    "UniformAccessWorkload",
    "WorkloadShape",
    "make_shape",
    "run_multi_tenant_replay",
    "run_multi_tenant_service",
]
