"""CI scale gate: on-runner budgets for the scale features.

Measures, on the machine actually running the job, the two scale-feature
budgets that regressed before PR 7 and are cheap enough to gate every
build (DESIGN.md §5f):

* **telemetry overhead** — replay wall-clock with the full in-memory
  telemetry attached must stay within ``TELEMETRY_MAX_OVERHEAD_PCT`` of
  the telemetry-off replay, and the results must be identical minus the
  telemetry-only keys;
* **parallel sweep speedup** — ``run_matrix(workers=2)`` over a 4-spec
  sweep must beat the serial sweep (speedup >= ``MIN_PARALLEL_SPEEDUP``)
  *when the runner has at least two CPUs*, and the parallel results must
  equal the serial ones.  On a single-CPU runner the speedup target is
  skipped with a note — a process pool cannot beat serial replay there,
  and reporting pool overhead as a regression would be dishonest;
* **service mode** — a short open-loop soak through the service engine
  must serve every request and report finite, ordered latency
  percentiles overall and per channel (DESIGN.md §5g);
* **tenant attribution** — multi-tenant replay and service runs must
  conserve attribution exactly: per-tenant erase, page, and busy-time
  sums equal the device totals (DESIGN.md §5h);
* **replay golden hash** — the closed-loop replay digest must match the
  committed golden (``benchmarks/golden_hotpath.json``): the service
  refactor must never perturb replay results;
* **arena registry identity** — the same golden replay driven through
  ``LevelerSpec(kind="swl")`` (the policy arena's paper-SWL cell) must
  produce the identical digest: the leveler registry is an indirection,
  not a behaviour change.

The thresholds are deliberately loose (the full-precision trajectory
point lives in ``BENCH_PR.json`` via ``make bench-trajectory``): this
gate exists to catch order-of-magnitude regressions — a hot-path event
allocation sneaking back in, the sweep pool silently serialising — not
to police single-digit percentages on noisy shared runners.

Usage::

    PYTHONPATH=src python scripts/scale_gate.py
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

from repro.core.config import SWLConfig
from repro.obs.telemetry import Telemetry
from repro.sim.experiment import (
    ExperimentSpec,
    run_fixed_horizon,
    run_matrix,
    run_service_soak,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.generator import MobilePCWorkload

#: Gate workload: same shape as benchmarks/perf_trajectory.py, half the
#: horizon — large enough that pool start-up and trace pickling do not
#: dominate a 2-worker sweep, small enough for every CI build.
BLOCKS = 48
SCALE = 100
HORIZON = 0.5 * 86_400.0
SEED = 7

#: Alternating off/on pairs for the telemetry point; best-of wins.
REPEATS = 3

#: Replay with telemetry attached may cost at most this much extra
#: wall-clock over the telemetry-off replay.  The trajectory point
#: tracks the precise figure (<10 % at PR 7); the gate only catches
#: blow-ups.
TELEMETRY_MAX_OVERHEAD_PCT = 25.0

#: ``run_matrix(workers=2)`` must at least break even with serial when
#: the runner has two CPUs to offer.
MIN_PARALLEL_SPEEDUP = 1.0

#: Service-gate soak shape: enough requests through two channels that
#: queueing and percentile interpolation are exercised, small enough for
#: every CI build.
SERVICE_REQUESTS = 20_000
SERVICE_RATE = 400.0
SERVICE_DEPTH = 16


def _shared_trace(spec: ExperimentSpec):
    params = workload_params_for(spec, duration=HORIZON, seed=SEED + 1)
    workload = MobilePCWorkload(params)
    return workload.requests(), workload.prefill_requests()


def gate_telemetry() -> list[str]:
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    spec = ExperimentSpec("ftl", geometry, SWLConfig(threshold=100, k=0),
                          seed=SEED)
    trace, warmup = _shared_trace(spec)
    off_walls: list[float] = []
    on_walls: list[float] = []
    off = on = None
    for repeat in range(REPEATS):
        # Flip which side leads each pair: host drift is monotone, so a
        # fixed leader would systematically get the better slot.
        sides = ("off", "on") if repeat % 2 == 0 else ("on", "off")
        for side in sides:
            start = time.perf_counter()
            if side == "off":
                off = run_fixed_horizon(spec, trace, HORIZON, warmup=warmup)
                off_walls.append(time.perf_counter() - start)
            else:
                telemetry = Telemetry(heatmap_interval=HORIZON / 8)
                on = run_fixed_horizon(spec, trace, HORIZON, warmup=warmup,
                                       telemetry=telemetry)
                on_walls.append(time.perf_counter() - start)
    assert off is not None and on is not None
    off_s, on_s = min(off_walls), min(on_walls)
    overhead = 100.0 * (on_s - off_s) / off_s
    print(f"telemetry: off {off_s:.3f}s, on {on_s:.3f}s "
          f"({overhead:+.2f}% overhead, budget "
          f"{TELEMETRY_MAX_OVERHEAD_PCT:.0f}%)")
    failures = []
    if overhead > TELEMETRY_MAX_OVERHEAD_PCT:
        failures.append(
            f"telemetry overhead {overhead:+.2f}% exceeds "
            f"{TELEMETRY_MAX_OVERHEAD_PCT:.0f}% budget"
        )
    off_dict, on_dict = off.as_dict(), on.as_dict()
    on_dict.pop("heatmap_snapshots", None)
    if off_dict != on_dict:
        failures.append("telemetry-on result differs from telemetry-off "
                        "(minus telemetry-only keys)")
    return failures


def gate_parallel_sweep() -> list[str]:
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    specs = [
        ExperimentSpec("ftl", geometry, SWLConfig(threshold=t, k=k),
                       seed=SEED)
        for t in (100.0, 1000.0) for k in (0, 3)
    ]
    trace, warmup = _shared_trace(specs[0])
    start = time.perf_counter()
    serial = run_matrix(specs, trace, horizon=HORIZON, warmup=warmup)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_matrix(specs, trace, horizon=HORIZON, warmup=warmup,
                          workers=2)
    parallel_s = time.perf_counter() - start
    speedup = serial_s / parallel_s
    cpus = os.cpu_count() or 1
    print(f"run_matrix x{len(specs)}: serial {serial_s:.3f}s, "
          f"workers=2 {parallel_s:.3f}s "
          f"(speedup {speedup:.3f}x on {cpus} CPUs)")
    failures = []
    if not all(a.as_dict() == b.as_dict() for a, b in zip(serial, parallel)):
        failures.append("workers=2 results differ from serial results")
    if cpus >= 2:
        if speedup < MIN_PARALLEL_SPEEDUP:
            failures.append(
                f"workers=2 speedup {speedup:.3f}x below "
                f"{MIN_PARALLEL_SPEEDUP:.1f}x on a {cpus}-CPU runner"
            )
    else:
        print("  note: single-CPU runner; speedup target skipped "
              "(pool cannot beat serial here)")
    return failures


def gate_service() -> list[str]:
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    spec = ExperimentSpec("nftl", geometry, SWLConfig(threshold=100, k=0),
                          seed=SEED, channels=2)
    trace, warmup = _shared_trace(spec)
    start = time.perf_counter()
    result = run_service_soak(
        spec, trace,
        rate=SERVICE_RATE,
        max_requests=SERVICE_REQUESTS,
        queue_depth=SERVICE_DEPTH,
        warmup=warmup,
    )
    wall = time.perf_counter() - start
    latency = result.latency
    print(f"service soak: {result.requests} requests in {wall:.3f}s wall, "
          f"p50 {latency.p50 * 1e3:.3f}ms, p95 {latency.p95 * 1e3:.3f}ms, "
          f"p99 {latency.p99 * 1e3:.3f}ms, {result.stalls} stalls")
    failures = []
    if result.requests != SERVICE_REQUESTS:
        failures.append(
            f"service soak served {result.requests} of "
            f"{SERVICE_REQUESTS} requests"
        )
    summaries = [("request", latency)] + [
        (f"channel {stats.channel}", stats.latency)
        for stats in result.channel_stats
    ]
    for name, summary in summaries:
        if not (math.isfinite(summary.p99) and summary.p99 > 0.0):
            failures.append(
                f"service {name} p99 not finite/positive: {summary.p99}"
            )
        if not summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum:
            failures.append(
                f"service {name} percentiles out of order: "
                f"p50 {summary.p50}, p95 {summary.p95}, "
                f"p99 {summary.p99}, max {summary.maximum}"
            )
    return failures


#: Tenant-conservation gate shape: three tenants (hotspot, phase-shifting,
#: mixed) over two channels — enough that GC and SWL work fires and must
#: land in some tenant's ledger.
TENANT_REQUESTS = 10_000


def gate_tenant_conservation() -> list[str]:
    """Per-tenant attribution must sum exactly to the device totals.

    Exercises both runners: the closed-loop replay and the open-loop
    service engine (DESIGN.md §5h conservation invariant).  Exact
    equality, not a tolerance — attribution diffs cumulative counters,
    so any drift means a request's work was dropped or double-billed.
    """
    from repro.sim.experiment import logical_sectors_of
    from repro.workloads import (
        MultiTenantWorkload,
        ShapeParams,
        TenantSpec,
        make_shape,
        run_multi_tenant_replay,
        run_multi_tenant_service,
    )

    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    spec = ExperimentSpec("ftl", geometry, SWLConfig(threshold=100, k=0),
                          seed=SEED, channels=2)
    sectors = logical_sectors_of(spec)
    workload = MultiTenantWorkload(
        [
            TenantSpec(
                name=f"tenant-{shape}",
                shape=make_shape(
                    shape,
                    ShapeParams(total_sectors=sectors, rate=20.0,
                                seed=SEED + index),
                    period=600.0,
                ),
                weight=1.0 + index,
            )
            for index, shape in enumerate(("hotspot", "phase", "mixed"))
        ],
        sectors,
        seed=SEED,
    )
    failures = []
    replay = run_multi_tenant_replay(
        spec, workload, max_requests=TENANT_REQUESTS
    )
    for error in replay.conservation_errors():
        failures.append(f"tenant replay attribution: {error}")
    service = run_multi_tenant_service(
        spec, workload, max_requests=TENANT_REQUESTS, queue_depth=SERVICE_DEPTH
    )
    for error in service.conservation_errors():
        failures.append(f"tenant service attribution: {error}")
    shares = ", ".join(
        f"{usage.name} {usage.erases}" for usage in replay.tenants
    )
    print(f"tenant attribution: {TENANT_REQUESTS} requests x 2 engines, "
          f"erases by tenant [{shares}] sum to "
          f"{replay.replay.total_erases} (exact)")
    return failures


def gate_replay_golden() -> list[str]:
    """The committed golden replay hash must survive the service refactor."""
    sys.path.insert(
        0, str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    from bench_hotpath import check_golden

    if check_golden() != 0:
        return ["closed-loop replay digest drifted from the committed "
                "golden (benchmarks/golden_hotpath.json)"]
    return []


def gate_arena() -> list[str]:
    """The arena's paper-SWL cell replays the classic stack bit for bit.

    The policy arena drives its roster through ``LevelerSpec``; this gate
    re-runs the golden replay with ``LevelerSpec(kind="swl")`` standing
    in for ``SWLConfig`` and requires the digest to equal the committed
    golden (``benchmarks/golden_hotpath.json``) — the registry must be a
    zero-cost indirection for the paper's mechanism, never a behaviour
    change.
    """
    import json

    sys.path.insert(
        0, str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    from bench_hotpath import GOLDEN_PATH, golden_digest

    from repro.core.policies import LevelerSpec

    committed = json.loads(GOLDEN_PATH.read_text())
    current = golden_digest(swl=LevelerSpec(kind="swl", threshold=100, k=0))
    if current["result_sha256"] != committed.get("result_sha256"):
        return [
            "arena LevelerSpec(kind='swl') replay digest "
            f"{current['result_sha256'][:16]}… drifted from the committed "
            f"golden {str(committed.get('result_sha256'))[:16]}… — the "
            "registry's paper-SWL cell is no longer bit-identical to the "
            "classic SWLConfig stack"
        ]
    print(
        "arena: LevelerSpec(kind='swl') replay digest matches the "
        f"committed golden ({current['result_sha256'][:16]}…)"
    )
    return []


def main() -> int:
    failures = (
        gate_telemetry()
        + gate_parallel_sweep()
        + gate_service()
        + gate_tenant_conservation()
        + gate_replay_golden()
        + gate_arena()
    )
    if failures:
        for failure in failures:
            print(f"SCALE GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("scale gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
