"""CI scale gate: on-runner budgets for the scale features.

Measures, on the machine actually running the job, the scale-feature
budgets that are cheap enough to gate every build (DESIGN.md §5f):

* **telemetry overhead** — replay wall-clock with the full in-memory
  telemetry attached must stay within ``TELEMETRY_MAX_OVERHEAD_PCT`` of
  the telemetry-off replay, and the results must be identical minus the
  telemetry-only keys;
* **service mode** — a short open-loop soak through the service engine
  must serve every request and report finite, ordered latency
  percentiles overall and per channel (DESIGN.md §5g).

The thresholds are deliberately loose (the full-precision trajectory
point lives in ``BENCH_PR.json`` via ``make bench-trajectory``): this
gate exists to catch order-of-magnitude regressions — a hot-path event
allocation sneaking back in, a service soak that drops requests — not
to police single-digit percentages on noisy shared runners.

Usage::

    PYTHONPATH=src python scripts/scale_gate.py
"""

from __future__ import annotations

import math
import sys
import time

from repro.core.config import SWLConfig
from repro.obs.telemetry import Telemetry
from repro.sim.experiment import (
    ExperimentSpec,
    run_fixed_horizon,
    run_service_soak,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.generator import MobilePCWorkload

#: Gate workload: same shape as benchmarks/perf_trajectory.py, half the
#: horizon — long enough that the telemetry overhead is not start-up
#: noise, small enough for every CI build.
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


def main() -> int:
    failures = gate_telemetry() + gate_service()
    if failures:
        for failure in failures:
            print(f"SCALE GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("scale gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
