"""repro — static wear leveling for flash-memory storage systems.

A complete, executable reproduction of

    Yuan-Hao Chang, Jen-Wei Hsieh, Tei-Wei Kuo.
    "Endurance Enhancement of Flash-Memory Storage Systems:
     An Efficient Static Wear Leveling Design."  DAC 2007.

The package layers exactly like the paper's Figure 1:

* :mod:`repro.flash` — the NAND chip simulator and MTD layer;
* :mod:`repro.ftl` — the FTL (page-level) and NFTL (block-level)
  translation drivers with the greedy Cleaner and dynamic wear leveling;
* :mod:`repro.core` — the SW Leveler: Block Erasing Table, SWL-Procedure,
  SWL-BETUpdate (the paper's contribution);
* :mod:`repro.traces` — the synthetic mobile-PC workload and the
  10-minute segment resampler of Section 5.1;
* :mod:`repro.sim` — the trace-replay engine and experiment protocols;
* :mod:`repro.analysis` — the analytic models of Section 4;
* :mod:`repro.obs` — the telemetry subsystem: typed event tracing,
  metrics, wear heatmaps, and exporters (off by default, zero-cost);
* :mod:`repro.workloads` — composable workload shapes (hotspot,
  sequential, uniform, mixed, phase-shifting) and the multi-tenant
  multiplexer with per-tenant wear attribution;
* :mod:`repro.endurance` — lifetime projection: WAF, TBW, DWPD, and
  first-failure horizons via the ``repro endure`` CLI.

Quickstart
----------
>>> from repro import build_stack, SWLConfig, MLC2_TINY
>>> stack = build_stack(MLC2_TINY, "nftl", SWLConfig(threshold=50, k=0))
>>> stack.layer.write(0)
>>> stack.layer.read(0) is None  # payload storage is off by default
True
"""

from repro.array import (
    DeviceArray,
    StripingPolicy,
    WearCoordinator,
    build_array,
    make_striping,
)
from repro.core import (
    BetStore,
    BlockErasingTable,
    CacheAvoidLeveler,
    DualPoolLeveler,
    LevelerSpec,
    SWLConfig,
    SWLeveler,
    SoftWearLeveler,
    leveler_kinds,
)
from repro.endurance import (
    EnduranceProjection,
    endurance_cells,
    project_endurance,
    run_endurance_matrix,
)
from repro.fault import (
    CrashConsistencyHarness,
    FaultCampaignResult,
    FaultInjector,
    FaultPlan,
    run_fault_campaign,
)
from repro.flash import (
    MLC2_1GB,
    MLC2_BENCH,
    MLC2_TINY,
    FlashGeometry,
    MtdDevice,
    NandFlash,
    mlc2,
    slc_large_block,
)
from repro.obs import (
    EventBus,
    MetricsCollector,
    MetricsRegistry,
    MetricsSnapshot,
    Telemetry,
    WearHeatmap,
    render_prometheus,
)
from repro.ftl import (
    NFTL,
    PageMappingFTL,
    StorageBackend,
    StorageStack,
    TranslationLayer,
    build_stack,
)
from repro.sim import (
    ExperimentSpec,
    SimResult,
    Simulator,
    StopCondition,
    WearSample,
    markdown_report,
    run_fixed_horizon,
    run_matrix,
    run_until_first_failure,
    workload_params_for,
)
from repro.traces import MobilePCWorkload, Op, Request, SegmentResampler, WorkloadParams
from repro.workloads import (
    MultiTenantWorkload,
    ShapeParams,
    TenantSpec,
    make_shape,
    run_multi_tenant_replay,
    run_multi_tenant_service,
)

__version__ = "1.0.0"

__all__ = [
    "BetStore",
    "BlockErasingTable",
    "CacheAvoidLeveler",
    "CrashConsistencyHarness",
    "DeviceArray",
    "DualPoolLeveler",
    "EnduranceProjection",
    "EventBus",
    "ExperimentSpec",
    "FaultCampaignResult",
    "FaultInjector",
    "FaultPlan",
    "FlashGeometry",
    "LevelerSpec",
    "MLC2_1GB",
    "MLC2_BENCH",
    "MLC2_TINY",
    "MetricsCollector",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MobilePCWorkload",
    "MtdDevice",
    "MultiTenantWorkload",
    "NFTL",
    "NandFlash",
    "Op",
    "PageMappingFTL",
    "Request",
    "SWLConfig",
    "SWLeveler",
    "SegmentResampler",
    "ShapeParams",
    "SimResult",
    "SoftWearLeveler",
    "Simulator",
    "StopCondition",
    "StorageBackend",
    "StorageStack",
    "StripingPolicy",
    "Telemetry",
    "TenantSpec",
    "TranslationLayer",
    "WearCoordinator",
    "WearHeatmap",
    "WearSample",
    "WorkloadParams",
    "build_array",
    "build_stack",
    "endurance_cells",
    "leveler_kinds",
    "make_shape",
    "make_striping",
    "markdown_report",
    "mlc2",
    "project_endurance",
    "render_prometheus",
    "run_endurance_matrix",
    "run_fault_campaign",
    "run_fixed_horizon",
    "run_matrix",
    "run_multi_tenant_replay",
    "run_multi_tenant_service",
    "run_until_first_failure",
    "slc_large_block",
    "workload_params_for",
]
