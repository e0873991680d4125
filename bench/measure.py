"""The untraced pass: timed repeats, output checks, end-to-end metrics.

Estimator.  The replayed work is deterministic, so host noise can only
add time.  The timed region is driven as ``SEGMENTS`` consecutive engine
calls over one stream; segment *i* does identical work in every repeat,
so the region's cost is taken as the sum over segments of each segment's
*minimum* over the repeats — every segment needs one quiet repeat, not one
repeat that is quiet throughout.  What is left is drift of the whole host
over minutes (+-10 % on the reference box, no steal time to subtract): a
small bench-owned kernel is timed before every segment, and host seconds
are scaled by ``CALIBRATION_REFERENCE_S`` over its fastest sample, i.e.
reported at the reference host's speed.  ``bench/README.md`` has the A/A
numbers behind both steps; raw per-repeat times are recorded beside the
result.  A fresh backend is built and warmed up for each repeat outside
the timed region; the trace is generated once per process.  Simulated
statistics must be identical on every repeat — a mismatch is a benchmark
failure, not a metric.

Only ``ExperimentSpec.build``, ``Simulator``, ``ServiceEngine``,
``RequestCore.apply`` and the public backend counters are used here; the
proxies of the traced pass live in :mod:`bench.tracing`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterable

from repro.ftl.factory import StorageBackend
from repro.service.engine import ServiceEngine
from repro.service.latency import LatencyHistogram
from repro.service.results import ServiceResult
from repro.sim.engine import Simulator, StopCondition
from repro.traces.model import Request
from repro.util.rng import make_rng, spawn_rng

from bench.workloads import (
    BACKLOG_LIMIT_S,
    P99_LIMIT_S,
    REFERENCE_RATE,
    SERVICE_RATES,
    Inputs,
    Workload,
    build_engine,
    request_stream,
)

#: A run keeps repeating until ``--seconds`` of timed region are spent,
#: but never stops before this many repeats (the minimum needs company).
MIN_REPEATS = 3
#: Written logical pages read back after the last repeat.
READBACK_SAMPLE = 1000
#: Engine calls one timed region is split into (divides every workload's
#: request count).
SEGMENTS = 20
#: Fastest time of :func:`calibrate` on the reference host when the
#: benchmark was defined; host seconds are reported at that speed.
CALIBRATION_REFERENCE_S = 0.00515

Engine = Simulator | ServiceEngine
#: A region drives ``engine`` over ``stream`` and returns the engine's
#: result, the host seconds it took, and whatever else it observed.
Region = Callable[[Workload, Engine, Iterable[Request]], tuple[Any, float, Any]]


@dataclass
class Mark:
    """Cumulative counters of one engine + backend at an instant."""

    requests: int
    pages_written: int
    pages_read: int
    programs: int
    erases: int
    flash_reads: int
    busy: float
    shard_busy: list[float]
    layer: dict[str, int]
    swl: dict[str, int]

    @classmethod
    def of(cls, engine: Engine) -> "Mark":
        backend = engine.stack
        shards = getattr(backend, "shards", [backend])
        return cls(
            requests=engine.requests_done,
            pages_written=engine.pages_written,
            pages_read=engine.pages_read,
            programs=backend.total_programs(),
            erases=backend.total_erases(),
            flash_reads=sum(shard.flash.counters.reads for shard in shards),
            busy=backend.busy_time,
            shard_busy=backend.shard_busy_times(),
            layer=backend.layer_stats(),
            swl=backend.swl_stats(),
        )


@dataclass
class Repeat:
    """One fresh backend driven through one region."""

    setup_s: float
    elapsed_s: float
    requests: int
    digest: str
    sim: dict[str, float]
    before: Mark
    after: Mark
    result: Any
    extra: Any
    backend: StorageBackend | None
    violations: list[str] = field(default_factory=list)


class _Cell:
    """What the calibration kernel calls: an attribute-bumping method."""

    __slots__ = ("calls", "total")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0

    def bump(self, address: tuple[int, int]) -> None:
        self.calls += 1
        self.total += 0.001


def calibrate() -> float:
    """Host seconds of a fixed kernel that shares no code with ``repro``.

    List indexing, small-int arithmetic, ``divmod`` and a bound-method
    call per step — the instruction mix of the simulator's page path —
    so it slows down and speeds up with the host as the replay does,
    while no change to the program under test can move it.
    """
    table = [-1] * 32768
    counts = [0] * 256
    bump = _Cell().bump
    state = 12345
    started = time.perf_counter()
    for step in range(20_000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        slot = state % 32768
        old = table[slot]
        table[slot] = step
        counts[(step >> 7) & 255] += 1
        bump(divmod(old, 128))
    return time.perf_counter() - started


def drive(workload: Workload, engine: Engine, stream: Iterable[Request],
          requests: int) -> Any:
    """``requests`` more requests through the engine's own loop."""
    if workload.service:
        assert isinstance(engine, ServiceEngine)
        return engine.serve(stream, max_requests=requests)
    assert isinstance(engine, Simulator)
    stop = StopCondition(max_requests=engine.requests_done + requests)
    return engine.run(stream, stop)


def replay_region(
    workload: Workload, engine: Engine, stream: Iterable[Request]
) -> tuple[Any, float, None]:
    """The whole region as one ``Simulator.run`` / ``ServiceEngine.serve``."""
    started = time.perf_counter()
    result = drive(workload, engine, stream, workload.requests)
    return result, time.perf_counter() - started, None


def segmented_region(
    workload: Workload, engine: Engine, stream: Iterable[Request]
) -> tuple[Any, float, tuple[list[float], list[float]]]:
    """The region as ``SEGMENTS`` timed engine calls over one stream.

    Both loops stop right after the request that reaches the budget, so
    consecutive calls see every request exactly once and end in the same
    state as one long call (the digests are checked to agree).  The
    calibration kernel runs before each segment, outside its timing.
    """
    stream = iter(stream)
    per_segment, remainder = divmod(workload.requests, SEGMENTS)
    assert not remainder, "SEGMENTS must divide the request count"
    segments: list[float] = []
    calibration: list[float] = []
    result = None
    for _ in range(SEGMENTS):
        calibration.append(calibrate())
        started = time.perf_counter()
        result = drive(workload, engine, stream, per_segment)
        segments.append(time.perf_counter() - started)
    return result, sum(segments), (segments, calibration)


def latency_region(
    workload: Workload, engine: Engine, stream: Iterable[Request]
) -> tuple[Any, float, LatencyHistogram]:
    """Closed-loop replay that also records each request's response time.

    With one request outstanding there is no queueing, so the response
    time is the simulated device time the request caused (GC and SWL work
    included), on the busiest channel when there are several.  Requests
    that never reach the device (skipped reads) are not observed.

    Percentiles come from the program's own ``LatencyHistogram``, as on
    the service row: its interpolated quantiles move continuously with
    the counts, where exact order statistics of these few discrete
    service times would jump between seeds.
    """
    histogram = LatencyHistogram()
    shard_busy_times = engine.stack.shard_busy_times
    started = time.perf_counter()
    before = shard_busy_times()
    for request in islice(stream, workload.requests):
        engine.apply(request)
        after = shard_busy_times()
        service = max(a - b for a, b in zip(after, before))
        if service > 0.0:
            histogram.observe(service)
        before = after
    return engine.result(), time.perf_counter() - started, histogram


def digest_of(result: Any) -> str:
    """SHA-256 of the canonical JSON of ``result.as_dict()``."""
    payload = json.dumps(result.as_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_repeat(
    workload: Workload,
    inputs: Inputs,
    *,
    rate: float = REFERENCE_RATE,
    region: Region = replay_region,
    build: Callable[[], StorageBackend] | None = None,
    telemetry: object | None = None,
    engine_classes: dict[str, type] | None = None,
) -> Repeat:
    """Build, warm up, run one region, and check its outputs."""
    gc.collect()
    started = time.perf_counter()
    backend = build() if build else inputs.spec.build(telemetry=telemetry)  # type: ignore[arg-type]
    engine = build_engine(
        workload, backend, telemetry=telemetry, **(engine_classes or {})
    )
    for request in inputs.warmup:
        engine.apply(request)
    stream = request_stream(workload, inputs, rate)
    before = Mark.of(engine)
    setup_s = time.perf_counter() - started

    result, elapsed_s, extra = region(workload, engine, stream)

    after = Mark.of(engine)
    repeat = Repeat(
        setup_s=setup_s,
        elapsed_s=elapsed_s,
        requests=after.requests - before.requests,
        digest=digest_of(result),
        sim=_sim_values(engine, before, after),
        before=before,
        after=after,
        result=result,
        extra=extra,
        backend=backend,
    )
    repeat.violations = _violations(workload, repeat, backend)
    return repeat


def _sim_values(engine: Engine, before: Mark, after: Mark) -> dict[str, float]:
    """Simulated statistics of the timed region (wear is end-of-run)."""
    requests = after.requests - before.requests
    distribution = engine.stack.erase_distribution()
    shard_busy = [a - b for a, b in zip(after.shard_busy, before.shard_busy)]
    return {
        "sim_waf": (after.programs - before.programs)
        / max(1, after.pages_written - before.pages_written),
        "sim_erase_max": distribution.maximum,
        "sim_erase_dev": distribution.deviation,
        "sim_busy_ms_per_req": 1e3 * (after.busy - before.busy) / max(1, requests),
        # Closed-loop rows: the rate at which the busiest channel would
        # be fully utilised.  The service row overrides this with the
        # highest fixed rate that meets the latency limit.
        "sim_max_rate_rps": requests / max(shard_busy),
    }


def _violations(
    workload: Workload, repeat: Repeat, backend: StorageBackend
) -> list[str]:
    """Conservation identities every repeat must satisfy."""
    problems = []
    after = repeat.after
    if repeat.requests != workload.requests:
        problems.append(
            f"requests_done {repeat.requests} != attempted {workload.requests}"
        )
    copies = after.layer.get("live_page_copies", 0)
    if after.programs != after.pages_written + copies:
        problems.append(
            f"total_programs {after.programs} != pages_written "
            f"{after.pages_written} + live_page_copies {copies}"
        )
    if sum(backend.erase_counts) != after.erases:
        problems.append(
            f"sum of per-block erase counts {sum(backend.erase_counts)} "
            f"!= total_erases {after.erases}"
        )
    return problems


def readback_failures(inputs: Inputs, backend: StorageBackend) -> tuple[int, int]:
    """Read a seeded sample of written logical pages; ``(tried, failed)``."""
    spp = backend.sectors_per_page
    logical = backend.num_logical_pages
    written = [
        lpn % logical
        for request in inputs.warmup
        for lpn in range(request.lba // spp, (request.end_lba - 1) // spp + 1)
    ]
    rng = spawn_rng(make_rng(inputs.spec.seed), "bench:readback")
    sample = rng.sample(written, min(READBACK_SAMPLE, len(written)))
    failed = 0
    for lpn in sample:
        try:
            backend.read_pages([lpn])
        except Exception:  # noqa: BLE001 - any failure is a failed read
            failed += 1
    return len(sample), failed


def summary(values: list[float]) -> dict[str, float | int]:
    """n / min / quartiles / median / max of raw per-repeat values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": max(values),
    }


def timed_repeats(
    workload: Workload, inputs: Inputs, seconds: float
) -> list[Repeat]:
    """Repeat the timed region until ``seconds`` of it have been measured.

    Only the last repeat keeps its backend and result (for the read-back
    and the latency summary), so memory does not grow with the count.
    """
    repeats: list[Repeat] = []
    measured = 0.0
    while measured < seconds or len(repeats) < MIN_REPEATS:
        if repeats:
            repeats[-1].backend = repeats[-1].result = None
        repeat = run_repeat(workload, inputs, region=segmented_region)
        repeats.append(repeat)
        measured += repeat.elapsed_s
    return repeats


def _service_sweep(
    workload: Workload, inputs: Inputs, reference: Repeat
) -> tuple[dict[str, dict[str, float]], float]:
    """Latency at every fixed rate, and the highest rate within limits."""
    rates: dict[str, dict[str, float]] = {}
    best = 0.0
    for rate in SERVICE_RATES:
        repeat = (
            reference if rate == REFERENCE_RATE
            else run_repeat(workload, inputs, rate=rate)
        )
        result: ServiceResult = repeat.result
        backlog = result.completion_time - result.replay.sim_time
        rates[f"{rate:g}"] = {
            "p50_ms": 1e3 * result.latency.p50,
            "p99_ms": 1e3 * result.latency.p99,
            "backlog_s": backlog,
            "stalls": result.stalls,
        }
        if result.latency.p99 <= P99_LIMIT_S and backlog <= BACKLOG_LIMIT_S:
            best = max(best, rate)
    return rates, best


def measure(workload: Workload, inputs: Inputs, seconds: float) -> dict[str, Any]:
    """Run the untraced pass of one workload; the detail record."""
    repeats = timed_repeats(workload, inputs, seconds)
    last = repeats[-1]
    assert last.backend is not None
    problems = [p for repeat in repeats for p in repeat.violations]
    if any(repeat.digest != last.digest for repeat in repeats):
        problems.append("simulated statistics differ between repeats")

    sim = dict(last.sim)
    detail: dict[str, Any] = {}
    if workload.service:
        detail["rates"], sim["sim_max_rate_rps"] = _service_sweep(
            workload, inputs, last
        )
        latency = last.result.latency
        sim["sim_p50_ms"] = 1e3 * latency.p50
        sim["sim_p99_ms"] = 1e3 * latency.p99
    else:
        observed = run_repeat(workload, inputs, region=latency_region)
        problems.extend(observed.violations)
        if observed.digest != last.digest:
            problems.append(
                "manual RequestCore.apply loop and Simulator.run disagree"
            )
        sim["sim_p50_ms"] = 1e3 * observed.extra.quantile(0.50)
        sim["sim_p99_ms"] = 1e3 * observed.extra.quantile(0.99)
        detail["latency_samples"] = observed.extra.count

    read_tried, read_failed = readback_failures(inputs, last.backend)
    attempted = workload.requests * len(repeats) + read_tried
    failed = sum(workload.requests - r.requests for r in repeats) + read_failed
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    elapsed = [repeat.elapsed_s for repeat in repeats]
    setups = [repeat.setup_s for repeat in repeats]
    segments = [repeat.extra[0] for repeat in repeats]
    floor_s = sum(min(column) for column in zip(*segments))
    calibration_s = min(s for repeat in repeats for s in repeat.extra[1])
    # > 1 when this host currently runs faster than the reference did.
    speed = CALIBRATION_REFERENCE_S / calibration_s
    metrics = {
        "host_req_per_s": workload.requests / (floor_s * speed),
        "setup_s": (inputs.gen_s + statistics.median(setups)) * speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim,
    }
    detail.update(
        workload=workload.name,
        seed=inputs.spec.seed,
        requests=workload.requests,
        label=last.result.label,
        metrics=metrics,
        digest=last.digest,
        host={
            "speed_vs_reference": speed,
            "calibration_s": calibration_s,
            "segment_floor_s": floor_s,
            "elapsed_s": {"raw": elapsed, **summary(elapsed)},
            "setup_s": {
                "trace_generation_s": inputs.gen_s,
                "raw": setups,
                **summary(setups),
            },
        },
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        problems=problems,
        correct=not problems,
    )
    return detail
