#!/usr/bin/env python3
"""Three tenants, one device: who is wearing out the flash?

Multiplexes three tenant workloads — a Zipf hotspot, a phase-shifting
hot set, and a mixed 50/50 read/write stream — onto disjoint regions of
one four-channel array, replays the interleaved stream, and attributes
every erase, page program, and busy second to the tenant whose request
caused it.  The attribution is *conserved*: each column of the tenant
table sums exactly to the device row.  The same run is then projected
into lifetime vocabulary (WAF, TBW, days at 1 DWPD) with SWL on vs off.

Run:  python examples/multi_tenant_endurance.py     (~30 seconds)
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import SWLConfig
from repro.endurance import project_endurance
from repro.sim.experiment import (
    ExperimentSpec,
    logical_sectors_of,
    scaled_mlc2_geometry,
)
from repro.sim.metrics import TenantUsage
from repro.util.tables import Table
from repro.workloads import (
    MultiTenantWorkload,
    ShapeParams,
    TenantSpec,
    make_shape,
    run_multi_tenant_replay,
)

SEED = 11
REQUESTS = 30_000

TENANT_SHAPES = (
    ("analytics", "hotspot"),   # skewed point updates
    ("migrating", "phase"),     # hot set that moves every period
    ("webcache", "mixed"),      # 50/50 reads and writes
)


def build_workload(sectors: int) -> MultiTenantWorkload:
    tenants = [
        TenantSpec(
            name=name,
            shape=make_shape(
                shape_name,
                ShapeParams(
                    total_sectors=sectors,
                    rate=8.0,
                    seed=SEED + index,
                ),
                period=600.0,
            ),
            weight=1.0 + 0.5 * index,
        )
        for index, (name, shape_name) in enumerate(TENANT_SHAPES)
    ]
    return MultiTenantWorkload(tenants, sectors, seed=SEED)


def main() -> None:
    geometry = scaled_mlc2_geometry(24, scale=100)
    swl_on = ExperimentSpec(
        "ftl", geometry, SWLConfig(threshold=100.0), seed=SEED, channels=4
    )
    sectors = logical_sectors_of(swl_on)

    result = run_multi_tenant_replay(
        swl_on, build_workload(sectors), max_requests=REQUESTS
    )
    assert not result.conservation_errors(), result.conservation_errors()

    total = TenantUsage.totals(result.tenants)
    rows = [
        [usage.name, usage.requests, usage.pages_written, usage.erases,
         f"{usage.busy_time:.2f}",
         f"{100 * usage.erases / max(1, total.erases):.1f}%"]
        for usage in result.tenants
    ]
    rows.append(
        ["device", result.replay.requests, result.replay.pages_written,
         result.replay.total_erases,
         f"{result.replay.device_busy_time:.2f}", "100.0%"]
    )
    print(Table(
        ["tenant", "requests", "pages written", "erases", "busy (s)",
         "wear share"],
        rows,
        title="Per-tenant wear attribution (columns sum to the device row)",
    ).text())

    print()
    print("Lifetime projection of the same traffic, SWL on vs off:")
    for spec in (replace(swl_on, swl=None), swl_on):
        replay = run_multi_tenant_replay(
            spec, build_workload(sectors), max_requests=REQUESTS
        ).replay
        projection = project_endurance(replay, geometry)
        print(
            f"  {projection.label:<40} WAF {projection.waf:.3f}  "
            f"TBW {projection.tbw_bytes / 1e9:.2f} GB  "
            f"{projection.days_at_one_dwpd:.1f} days @ 1 DWPD"
        )


if __name__ == "__main__":
    main()
