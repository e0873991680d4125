"""Per-PR performance trajectory point: ``make bench-quick`` artifact.

Measures five things (a few minutes; the service soak dominates) and
writes them to
``BENCH_PR.json`` at the repository root, so successive PRs leave a
comparable breadcrumb trail:

* **Replay throughput** — requests/second through the simulation engine
  for the classic single-channel stack and a 4-channel page-interleaved
  array, same workload.  Wall-clock points are best-of-``REPEATS``: the
  shortest of a few alternating runs, which rejects scheduler noise on
  shared runners without averaging in outliers;
* **Table-2 extra-erase deltas** — the measured extra block erases of
  SWL (T = 100 and T = 1000) over the no-SWL baseline, next to the
  paper's analytic worst-case ratios for the matching Table 2 rows (the
  measured average-case must sit far below the worst case);
* **run_matrix parallelism** — wall-clock of a 4-spec sweep serial vs
  ``workers=4`` plus a result-equality check.  Speedup depends on the
  host's core count, so the point records ``cpu_count`` and a
  ``speedup_meaningful`` flag: on a runner with fewer cores than
  workers the process pool cannot win, and the speedup target is
  annotated as not applicable rather than reported as a regression;
* **telemetry overhead** — replay req/s with telemetry off vs on
  (metrics collector attached, no file exporters), guarding the
  :mod:`repro.obs` off-path contract: the *off* point must track the
  plain throughput numbers PR over PR;
* **service latency** — a million-request open-loop soak through the
  service engine (DESIGN.md §5g) for SWL-off and SWL-on at the paper's
  T thresholds, recording overall and per-channel p50/p95/p99 so the
  tail interference of static wear leveling is tracked PR over PR;
* **endurance projections** — TBW and days-at-1-DWPD under the
  hotspot workload (Zipf θ = 0.99) for SWL-on (T = 100) vs SWL-off
  (DESIGN.md §5h), plus replay req/s for every workload shape, so the
  lifetime gain of static wear leveling and the generator overhead are
  both tracked PR over PR.

Usage::

    PYTHONPATH=src python benchmarks/perf_trajectory.py [output.json]
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.overhead import TABLE2_CONFIGS
from repro.core.config import SWLConfig
from repro.endurance import endurance_cells, run_endurance_matrix
from repro.obs.telemetry import Telemetry
from repro.service.arrival import open_loop_rate
from repro.sim.experiment import (
    ExperimentSpec,
    logical_sectors_of,
    run_fixed_horizon,
    run_matrix,
    run_service_soak,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.generator import MobilePCWorkload
from repro.workloads import SHAPE_NAMES, ShapeParams, make_shape

#: Quick-mode knobs: small chip, compressed endurance, short horizon.
BLOCKS = 48
SCALE = 100
HORIZON = 1.0 * 86_400.0
SEED = 7

#: Timed points take the best (shortest) of this many runs.  The replay
#: is deterministic, so run-to-run wall-clock differences are host noise;
#: the minimum is the least-contended observation of the same work.
#: Five alternating pairs, because the single- vs four-channel gap this
#: point tracks is smaller than the round-to-round noise on a shared
#: runner and the minimum only stabilises with a few extra samples.
REPEATS = 5

#: The telemetry on/off comparison is the headline overhead figure and
#: the two sides differ by well under the host's noise floor, so it gets
#: extra alternating pairs.
TELEMETRY_REPEATS = 5

#: Service-latency soak: a million requests per configuration, arriving
#: from a 2,000-client open-loop Poisson population (Palm–Khintchine:
#: rate = clients / think_time).  Deterministic, so one run per cell.
SERVICE_SOAK_REQUESTS = 1_000_000
SERVICE_CLIENTS = 2_000
SERVICE_THINK_TIME = 5.0
SERVICE_QUEUE_DEPTH = 32
SERVICE_CHANNELS = 4

#: Endurance point: hotspot skew for the SWL-on/off TBW comparison, and
#: the generated-workload arrival rate (matching the mobile-PC trace's
#: ~4 req/s so req/s points are comparable across sections).
ENDURE_THETA = 0.99
ENDURE_RATE = 4.0


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _shared_trace(spec: ExperimentSpec):
    params = workload_params_for(spec, duration=HORIZON, seed=SEED + 1)
    workload = MobilePCWorkload(params)
    return workload.requests(), workload.prefill_requests()


def _timed_run(spec: ExperimentSpec, trace, warmup, telemetry=None):
    """One replay; returns ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = run_fixed_horizon(spec, trace, HORIZON, warmup=warmup,
                               telemetry=telemetry)
    return result, time.perf_counter() - start


def measure_throughput() -> dict[str, object]:
    """Requests/second: single stack vs a 4-channel array, same trace."""
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    single = ExperimentSpec("ftl", geometry, SWLConfig(threshold=100, k=0),
                            seed=SEED)
    trace, warmup = _shared_trace(single)
    configs = (
        ("single_channel", single),
        ("four_channel_global", ExperimentSpec(
            "ftl", geometry, SWLConfig(threshold=100, k=0), seed=SEED,
            channels=4, striping="page", swl_scope="global",
        )),
    )
    # Alternate the configurations so slow drift in host load lands on
    # both sides of the single-vs-multi-channel comparison — and flip
    # which one leads on every pair: host slowdown is typically
    # monotone within the measurement window, so a fixed leader would
    # systematically get the less-contended slot.
    walls: dict[str, list[float]] = {label: [] for label, _ in configs}
    results = {}
    for repeat in range(REPEATS):
        ordered = configs if repeat % 2 == 0 else tuple(reversed(configs))
        for label, spec in ordered:
            result, elapsed = _timed_run(spec, trace, warmup)
            results[label] = result
            walls[label].append(elapsed)
    points = {}
    for label, _ in configs:
        best = min(walls[label])
        result = results[label]
        points[label] = {
            "label": result.label,
            "requests": result.requests,
            "wall_s": round(best, 3),
            "requests_per_s": round(result.requests / best, 1),
            "repeats": REPEATS,
        }
    return points


def measure_table2_deltas() -> list[dict[str, object]]:
    """Measured SWL extra-erase ratios vs the paper's Table 2 worst case."""
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    baseline_spec = ExperimentSpec("ftl", geometry, None, seed=SEED)
    trace, warmup = _shared_trace(baseline_spec)
    baseline = run_fixed_horizon(baseline_spec, trace, HORIZON, warmup=warmup)
    rows: list[dict[str, object]] = []
    for threshold in (100.0, 1000.0):
        spec = ExperimentSpec(
            "ftl", geometry, SWLConfig(threshold=threshold, k=0), seed=SEED
        )
        result = run_fixed_horizon(spec, trace, HORIZON, warmup=warmup)
        measured = (
            (result.total_erases - baseline.total_erases)
            / baseline.total_erases
        )
        worst_cases = {
            f"H{config.hot_blocks}_C{config.cold_blocks}":
                round(config.extra_erase_ratio(), 6)
            for config in TABLE2_CONFIGS
            if config.threshold == threshold
        }
        rows.append({
            "threshold": threshold,
            "baseline_erases": baseline.total_erases,
            "swl_erases": result.total_erases,
            "measured_extra_erase_ratio": round(measured, 6),
            "table2_worst_case_ratios": worst_cases,
            "within_worst_case": all(
                measured <= worst for worst in worst_cases.values()
            ),
        })
    return rows


def measure_run_matrix_parallel() -> dict[str, object]:
    """Serial vs workers=4 wall-clock over a 4-spec sweep; results equal."""
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
    workers = 4
    start = time.perf_counter()
    parallel = run_matrix(specs, trace, horizon=HORIZON, warmup=warmup,
                          workers=workers)
    parallel_s = time.perf_counter() - start
    identical = all(
        a.as_dict() == b.as_dict() for a, b in zip(serial, parallel)
    )
    cpus = os.cpu_count() or 1
    point: dict[str, object] = {
        "specs": len(specs),
        "workers": workers,
        "cpu_count": cpus,
        "serial_wall_s": round(serial_s, 3),
        "workers4_wall_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 3),
        # A process pool can only beat serial replay when the host has
        # spare cores; below that the point documents pool overhead, not
        # a scheduling regression, and speedup targets do not apply.
        "speedup_meaningful": cpus >= 2,
        "results_identical": identical,
    }
    if cpus < workers:
        point["note"] = (
            f"host has {cpus} CPU(s) < workers={workers}; "
            "speedup target not applicable on this runner"
        )
    return point


def measure_telemetry_overhead() -> dict[str, object]:
    """Replay req/s telemetry-off vs telemetry-on, same trace and spec.

    The "on" configuration attaches the full event bus with the metrics
    collector and heatmap sampling — the in-memory telemetry a user gets
    from ``--telemetry`` — but no file exporters, so the number isolates
    instrumentation cost from disk throughput.
    """
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    spec = ExperimentSpec("ftl", geometry, SWLConfig(threshold=100, k=0),
                          seed=SEED)
    trace, warmup = _shared_trace(spec)

    # Alternate off/on runs so slow drift in host load hits both sides,
    # then take the best of each: the overhead of deterministic work is
    # the gap between the least-contended observations.
    off_walls: list[float] = []
    on_walls: list[float] = []
    off = on = None
    telemetry = None
    for _ in range(TELEMETRY_REPEATS):
        off, off_s = _timed_run(spec, trace, warmup)
        off_walls.append(off_s)
        telemetry = Telemetry(heatmap_interval=HORIZON / 16)
        on, on_s = _timed_run(spec, trace, warmup, telemetry=telemetry)
        on_walls.append(on_s)
    assert off is not None and on is not None and telemetry is not None
    off_s = min(off_walls)
    on_s = min(on_walls)

    off_dict, on_dict = off.as_dict(), on.as_dict()
    on_dict.pop("heatmap_snapshots", None)
    return {
        "requests": off.requests,
        "off_wall_s": round(off_s, 3),
        "on_wall_s": round(on_s, 3),
        "off_requests_per_s": round(off.requests / off_s, 1),
        "on_requests_per_s": round(on.requests / on_s, 1),
        "overhead_pct": round(100.0 * (on_s - off_s) / off_s, 2),
        "repeats": TELEMETRY_REPEATS,
        "results_identical_minus_telemetry": off_dict == on_dict,
        "events_collected": int(
            telemetry.snapshot()
            .counters["repro_flash_erases_total"].value
        ),
        "heatmaps": len(on.heatmaps),
    }


def measure_service_latency() -> dict[str, object]:
    """Million-request service soaks: SWL-off vs SWL-on tail latency.

    Every cell sees the same request stream and the same Poisson arrival
    times (shared seed, dedicated "arrivals" RNG stream), so any latency
    difference between cells is cleaning/wear-leveling interference.
    """
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    rate = open_loop_rate(SERVICE_CLIENTS, SERVICE_THINK_TIME)
    base = ExperimentSpec("nftl", geometry, None, seed=SEED,
                          channels=SERVICE_CHANNELS)
    trace, warmup = _shared_trace(base)
    cells = [
        ("swl_off", None),
        ("swl_T100", SWLConfig(threshold=100.0, k=0)),
        ("swl_T1000", SWLConfig(threshold=1000.0, k=0)),
    ]
    point: dict[str, object] = {
        "requests_per_cell": SERVICE_SOAK_REQUESTS,
        "clients": SERVICE_CLIENTS,
        "think_time_s": SERVICE_THINK_TIME,
        "arrival_rate_rps": rate,
        "queue_depth": SERVICE_QUEUE_DEPTH,
        "channels": SERVICE_CHANNELS,
    }
    p99s: dict[str, float] = {}
    for name, swl in cells:
        spec = ExperimentSpec("nftl", geometry, swl, seed=SEED,
                              channels=SERVICE_CHANNELS)
        start = time.perf_counter()
        result = run_service_soak(
            spec, trace,
            rate=rate,
            max_requests=SERVICE_SOAK_REQUESTS,
            queue_depth=SERVICE_QUEUE_DEPTH,
            warmup=warmup,
        )
        wall = time.perf_counter() - start
        p99s[name] = result.latency.p99
        point[name] = {
            "label": result.label,
            "requests": result.requests,
            "wall_s": round(wall, 3),
            "requests_per_wall_s": round(result.requests / wall, 1),
            "completion_time_s": round(result.completion_time, 3),
            "stalls": result.stalls,
            "total_erases": result.replay.total_erases,
            "latency": {
                key: round(value, 9) if isinstance(value, float) else value
                for key, value in result.latency.as_dict().items()
            },
            "channels": [
                {
                    key: round(value, 9) if isinstance(value, float) else value
                    for key, value in stats.as_dict().items()
                }
                for stats in result.channel_stats
            ],
        }
    off_p99 = p99s["swl_off"]
    point["tail_interference"] = {
        f"{name}_p99_over_swl_off": (
            round(p99s[name] / off_p99, 4) if off_p99 > 0 else None
        )
        for name, _ in cells[1:]
    }
    return point


def measure_endurance() -> dict[str, object]:
    """Endurance projections (DESIGN.md §5h): SWL lifetime gain + shapes.

    The headline pair is hotspot θ = 0.99 with and without SWL (T = 100)
    on the same generated trace — the TBW and days-at-1-DWPD gap is the
    lifetime static wear leveling buys under a pathological hot set.
    The pair runs on NFTL (like the service soak): block-level mapping
    leaves cold blocks genuinely static, which is the wear pattern the
    paper's mechanism targets — the page-mapping FTL's dynamic wear
    leveling already spreads a pure hotspot on its own, so an FTL pair
    would track noise around zero instead of the SWL effect.  The
    per-workload block replays every shape through the FTL+SWL hot path
    once (the stack whose req/s the throughput section tracks),
    recording generator+replay req/s per shape.
    """
    geometry = scaled_mlc2_geometry(BLOCKS, scale=SCALE)
    off_spec = ExperimentSpec("nftl", geometry, None, seed=SEED)
    on_spec = ExperimentSpec("nftl", geometry, SWLConfig(threshold=100, k=0),
                             seed=SEED)
    cells = endurance_cells(["hotspot"], [off_spec, on_spec])
    results = run_endurance_matrix(
        cells, horizon=HORIZON, rate=ENDURE_RATE, theta=ENDURE_THETA,
        seed=SEED,
    )
    assert all(result is not None for result in results)
    point: dict[str, object] = {
        "workload": "hotspot",
        "driver": "nftl",
        "theta": ENDURE_THETA,
        "rate_rps": ENDURE_RATE,
    }
    for name, result in zip(("swl_off", "swl_T100"), results):
        projection = result.projection
        point[name] = {
            "label": projection.label,
            "requests": result.replay.requests,
            "waf": round(projection.waf, 4),
            "erase_max": projection.erase_maximum,
            "wear_skew": round(projection.wear_skew, 4),
            "tbw_gb": round(projection.tbw_bytes / 1e9, 4),
            "days_at_one_dwpd": round(projection.days_at_one_dwpd, 2),
            "first_failure_days": round(
                projection.projected_first_failure_days, 2
            ),
        }
    off_tbw = results[0].projection.tbw_bytes
    on_tbw = results[1].projection.tbw_bytes
    point["swl_tbw_gain"] = round(on_tbw / off_tbw - 1.0, 4)

    ftl_spec = ExperimentSpec("ftl", geometry, SWLConfig(threshold=100, k=0),
                              seed=SEED)
    sectors = logical_sectors_of(ftl_spec)
    per_workload: dict[str, object] = {}
    for shape_name in SHAPE_NAMES:
        shape = make_shape(
            shape_name,
            ShapeParams(total_sectors=sectors, rate=ENDURE_RATE, seed=SEED),
            theta=ENDURE_THETA,
        )
        start = time.perf_counter()
        trace = shape.requests(HORIZON)
        result = run_fixed_horizon(ftl_spec, trace, HORIZON)
        wall = time.perf_counter() - start
        per_workload[shape_name] = {
            "requests": result.requests,
            "wall_s": round(wall, 3),
            "requests_per_s": round(result.requests / wall, 1),
        }
    point["per_workload_driver"] = "ftl"
    point["per_workload_throughput"] = per_workload
    return point


def main(argv: list[str]) -> int:
    output = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "BENCH_PR.json"
    )
    point = {
        "schema": 1,
        "generated_unix": int(time.time()),
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "config": {"blocks": BLOCKS, "scale": SCALE,
                   "horizon_s": HORIZON, "seed": SEED},
        "throughput": measure_throughput(),
        "table2_extra_erases": measure_table2_deltas(),
        "run_matrix_parallel": measure_run_matrix_parallel(),
        "telemetry": measure_telemetry_overhead(),
        "service_latency": measure_service_latency(),
        "endurance": measure_endurance(),
    }
    output.write_text(json.dumps(point, indent=2) + "\n")
    print(f"wrote {output}")
    matrix = point["run_matrix_parallel"]
    print(f"  replay: "
          f"{point['throughput']['single_channel']['requests_per_s']} req/s "
          f"(1ch), "
          f"{point['throughput']['four_channel_global']['requests_per_s']} "
          f"req/s (4ch)")
    print(f"  run_matrix x{matrix['specs']}: {matrix['serial_wall_s']}s "
          f"serial, {matrix['workers4_wall_s']}s with workers=4 "
          f"(speedup {matrix['speedup']}x on {matrix['cpu_count']} CPUs, "
          f"identical={matrix['results_identical']})")
    if not matrix["speedup_meaningful"]:
        banner = "!" * 72
        print(
            f"{banner}\n"
            f"!! WARNING: parallel-sweep speedup point is NOT meaningful\n"
            f"!!   {matrix['note']}\n"
            f"!!   The recorded {matrix['speedup']}x documents process-pool\n"
            f"!!   overhead on this host, not scheduling performance.  Do\n"
            f"!!   not compare it against multi-core trajectory points or\n"
            f"!!   cite it as a parallelism result.\n"
            f"{banner}",
            file=sys.stderr,
        )
    telemetry = point["telemetry"]
    print(f"  telemetry: {telemetry['off_requests_per_s']} req/s off, "
          f"{telemetry['on_requests_per_s']} req/s on "
          f"({telemetry['overhead_pct']:+.2f}%, "
          f"identical={telemetry['results_identical_minus_telemetry']})")
    service = point["service_latency"]
    for cell in ("swl_off", "swl_T100", "swl_T1000"):
        latency = service[cell]["latency"]
        print(f"  service {cell}: p50 {latency['p50_s'] * 1e3:.3f}ms, "
              f"p95 {latency['p95_s'] * 1e3:.3f}ms, "
              f"p99 {latency['p99_s'] * 1e3:.3f}ms "
              f"({service[cell]['requests']} requests, "
              f"{service[cell]['wall_s']}s wall)")
    print(f"  service tail interference vs SWL-off: "
          f"{service['tail_interference']}")
    endurance = point["endurance"]
    for cell in ("swl_off", "swl_T100"):
        row = endurance[cell]
        print(f"  endurance {cell}: {row['tbw_gb']} GB TBW, "
              f"{row['days_at_one_dwpd']} days @ 1 DWPD, "
              f"WAF {row['waf']}, skew {row['wear_skew']}")
    print(f"  endurance SWL TBW gain (hotspot θ={endurance['theta']}): "
          f"{endurance['swl_tbw_gain'] * 100:+.1f}%")
    shapes = endurance["per_workload_throughput"]
    print("  workload replay req/s: " + ", ".join(
        f"{name} {stats['requests_per_s']}" for name, stats in shapes.items()
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
