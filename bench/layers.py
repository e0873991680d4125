"""The per-layer pass: standalone costs, program counters, and spans.

Three kinds of per-layer metric (``bench/README.md`` has the table):

* *standalone* — one layer's public API timed alone, over a null
  backend or a stub host, never through a proxy;
* *count* — the program's own public counters over the timed region of
  an untraced run; these repeat exactly;
* *span* — self times from the traced run (:mod:`bench.tracing`).

Layers a workload's stack does not contain (the array on one channel, the
service queues in a closed loop) report 0: no calls, no time.
"""

from __future__ import annotations

import cProfile
import time
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.core.config import SWLConfig
from repro.flash.chip import NandFlash
from repro.flash.mtd import MtdDevice
from repro.obs.telemetry import Telemetry
from repro.service.arrival import poisson_arrivals
from repro.service.engine import ServiceEngine
from repro.sim.core import RequestCore
from repro.sim.metrics import EraseDistribution
from repro.traces.extend import SEGMENT_SECONDS, SegmentResampler
from repro.traces.model import Request
from repro.util.rng import make_rng

from bench.measure import Engine, Repeat, drive, replay_region, run_repeat
from bench.tracing import Tracer, build_traced_backend, traced_engine_classes
from bench.workloads import (
    QUEUE_DEPTH,
    REFERENCE_RATE,
    Inputs,
    Workload,
    request_stream,
)

#: Untraced (and telemetry-on) repeats behind the overhead fractions.
OVERHEAD_REPEATS = 3
#: Requests a standalone request-level microbenchmark drives.
STANDALONE_REQUESTS = 20_000
#: Calls of the standalone BET-update microbenchmark.
BET_UPDATES = 100_000
#: Timed requests profiled for ``sim.pycalls_per_req``.
PROFILE_REQUESTS = 1_000
#: Simulated seconds one page costs a channel of the null backend.
NULL_PAGE_SECONDS = 1e-4


class NullBackend:
    """A ``StorageBackend`` that stores nothing and wears nothing.

    Page batches are counted and charged a fixed simulated time to the
    channel of their first page, so the service engine's queues have
    work to account; everything else is empty.  What remains when an
    engine drives it is the engine's own cost.
    """

    name = "null"
    sectors_per_page = 4
    first_failure = None

    def __init__(self, num_shards: int = 1, num_logical_pages: int = 1 << 20) -> None:
        self.num_shards = num_shards
        self.num_logical_pages = num_logical_pages
        self._busy = [0.0] * num_shards

    def write_pages(self, lpns: Sequence[int]) -> int:
        self._busy[lpns[0] % self.num_shards] += NULL_PAGE_SECONDS * len(lpns)
        return len(lpns)

    read_pages = write_pages

    def on_request(self, now: float) -> None:
        pass

    @property
    def erase_counts(self) -> list[int]:
        return [0]

    def shard_erase_counts(self) -> list[list[int]]:
        return [[0] for _ in self._busy]

    def erase_distribution(self) -> EraseDistribution:
        return EraseDistribution.from_counts([0])

    def shard_erase_distributions(self) -> list[EraseDistribution]:
        return [EraseDistribution.from_counts([0]) for _ in self._busy]

    def wear_heatmap(self, ts: float, bins: int = 64) -> Any:
        raise NotImplementedError("the null backend has no wear to map")

    def total_erases(self) -> int:
        return 0

    def total_programs(self) -> int:
        return 0

    @property
    def busy_time(self) -> float:
        return sum(self._busy)

    def shard_busy_times(self) -> list[float]:
        return list(self._busy)

    def layer_stats(self) -> dict[str, int]:
        return {}

    def swl_stats(self) -> dict[str, int]:
        return {}

    def fault_stats(self) -> dict[str, int]:
        return {}


class StubHost:
    """A ``WearLevelingHost`` with no blocks to recycle and no costs."""

    def recycle_block_range(self, blocks: range) -> int:
        return 0

    def swl_cost_probe(self) -> tuple[int, int]:
        return 0, 0


def _best_of(repeats: int, run: Callable[[], float]) -> float:
    return min(run() for _ in range(repeats))


def _timed(call: Callable[[], Any]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def standalone(workload: Workload, inputs: Inputs) -> dict[str, float]:
    """Each layer's public API driven alone; microseconds per operation."""
    spec = inputs.spec
    base = inputs.base if inputs.base is not None else inputs.trace
    assert base is not None
    requests = list(islice(request_stream(workload, inputs), STANDALONE_REQUESTS))
    n = len(requests)

    def resample() -> float:
        # The paper's 10-minute segment, shortened when a generated trace
        # covers less than two of them.
        segment = min(SEGMENT_SECONDS, base[-1].time / 2)
        stream = SegmentResampler(
            base, segment=segment, rng=make_rng(spec.seed)
        ).iter_requests()
        return _timed(lambda: sum(1 for _ in islice(stream, STANDALONE_REQUESTS)))

    def apply_null() -> float:
        core = RequestCore(NullBackend(), skip_reads=workload.skip_reads)
        apply = core.apply
        return _timed(lambda: [apply(request) for request in requests])

    def serve_null() -> float:
        engine = ServiceEngine(
            NullBackend(num_shards=spec.channels), queue_depth=QUEUE_DEPTH
        )
        arrivals = poisson_arrivals(requests, REFERENCE_RATE, make_rng(spec.seed))
        return _timed(lambda: engine.serve(arrivals, max_requests=n))

    def bet_update() -> float:
        blocks = spec.geometry.num_blocks
        leveler = SWLConfig(threshold=float(BET_UPDATES)).build(
            blocks, StubHost(), rng=make_rng(spec.seed)
        )
        assert leveler is not None
        erased = leveler.on_block_erased
        return _timed(lambda: [erased(i % blocks) for i in range(BET_UPDATES)])

    geometry = spec.geometry
    pages = [
        (block, page)
        for block in range(geometry.num_blocks)
        for page in range(geometry.pages_per_block)
    ]
    program_s, read_s, erase_s = [], [], []
    for _ in range(OVERHEAD_REPEATS):
        mtd = MtdDevice(NandFlash(geometry))
        write, read, erase = mtd.write_page, mtd.read_page, mtd.erase_block
        program_s.append(_timed(
            lambda: [write(block, page, lba=page) for block, page in pages]
        ))
        read_s.append(_timed(lambda: [read(block, page) for block, page in pages]))
        erase_s.append(_timed(
            lambda: [erase(block) for block in range(geometry.num_blocks)]
        ))

    return {
        "workloads.gen_us_per_req": 1e6 * inputs.gen_s / inputs.gen_requests,
        "traces.resample_us_per_req":
            1e6 * _best_of(OVERHEAD_REPEATS, resample) / STANDALONE_REQUESTS,
        "sim.apply_null_us_per_req":
            1e6 * _best_of(OVERHEAD_REPEATS, apply_null) / n,
        "service.serve_null_us_per_req":
            1e6 * _best_of(OVERHEAD_REPEATS, serve_null) / n,
        "core.bet_update_us":
            1e6 * _best_of(OVERHEAD_REPEATS, bet_update) / BET_UPDATES,
        "flash.program_us": 1e6 * min(program_s) / len(pages),
        "flash.read_us": 1e6 * min(read_s) / len(pages),
        "flash.erase_us": 1e6 * min(erase_s) / geometry.num_blocks,
    }


def counts(workload: Workload, repeat: Repeat) -> dict[str, float]:
    """Program counters over the timed region of one untraced repeat."""
    before, after = repeat.before, repeat.after
    requests = repeat.requests

    def layer(key: str) -> int:
        return after.layer.get(key, 0) - before.layer.get(key, 0)

    def swl(key: str) -> int:
        return after.swl.get(key, 0) - before.swl.get(key, 0)

    shard_busy = [a - b for a, b in zip(after.shard_busy, before.shard_busy)]
    gc_runs = layer("gc_runs")
    copies = layer("live_page_copies")
    pages = (after.pages_written - before.pages_written
             + after.pages_read - before.pages_read)
    metrics: dict[str, float] = {
        "sim.pages_per_req": pages / requests,
        "array.shard_busy_imbalance":
            max(shard_busy) / (sum(shard_busy) / len(shard_busy)),
        "ftl.write_calls": layer("host_writes"),
        "ftl.read_calls": layer("host_reads"),
        "ftl.gc_runs": gc_runs,
        "ftl.live_page_copies": copies,
        "ftl.copies_per_gc": copies / gc_runs if gc_runs else 0.0,
        "flash.programs": after.programs - before.programs,
        "flash.reads": after.flash_reads - before.flash_reads,
        "flash.erases": after.erases - before.erases,
        "flash.erase_max": repeat.sim["sim_erase_max"],
        "flash.sim_busy_s": after.busy - before.busy,
        "service.stalls": 0,
        "service.stall_time_s": 0.0,
        "service.peak_depth": 0,
        "service.channel_util": 0.0,
    }
    for key in (
        "procedure_checks", "procedure_runs", "forced_recycles", "swl_erases",
        "swl_copies", "bet_resets", "direct_marks",
    ):
        metrics[f"core.{key}"] = swl(key)
    if workload.service:
        channels = repeat.result.channel_stats
        metrics.update({
            "service.stalls": sum(c.stalls for c in channels),
            "service.stall_time_s": sum(c.stall_time for c in channels),
            "service.peak_depth": max(c.peak_depth for c in channels),
            "service.channel_util":
                sum(c.busy_time for c in channels)
                / len(channels) / repeat.result.completion_time,
        })
    return metrics


def python_calls_per_request(workload: Workload, inputs: Inputs) -> float:
    """Python + C call events per request over the first timed requests.

    ``cProfile`` counts the same ``call`` / ``c_call`` events a
    ``sys.setprofile`` hook would see, from C; the count repeats exactly.
    """
    profiled = min(PROFILE_REQUESTS, workload.requests)
    profile = cProfile.Profile()

    def region(
        workload: Workload, engine: Engine, stream: Iterable[Request]
    ) -> tuple[Any, float, None]:
        profile.enable()
        try:
            result = drive(workload, engine, stream, profiled)
        finally:
            profile.disable()
        return result, 0.0, None

    # The repeat is shorter than the workload on purpose; its request
    # count check does not apply.
    run_repeat(workload, inputs, region=region)
    return sum(entry.callcount for entry in profile.getstats()) / profiled


def traced_repeat(
    workload: Workload, inputs: Inputs, tracer: Tracer
) -> Repeat:
    """One repeat over the proxied stack, under one root span."""

    def region(
        workload: Workload, engine: Engine, stream: Iterable[Request]
    ) -> tuple[Any, float, None]:
        tracer.reset()  # drop the warm-up's spans
        root = tracer.wrap("run", replay_region)
        return root(workload, engine, tracer.iterate("traces.next", stream))

    return run_repeat(
        workload,
        inputs,
        region=region,
        build=lambda: build_traced_backend(inputs.spec, tracer),
        engine_classes=traced_engine_classes(tracer),
    )


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times of the traced run."""
    return {
        "sim.apply_self_s": tracer.self_s("sim.apply"),
        "sim.apply_calls": tracer.count("sim.apply"),
        "array.dispatch_self_s": tracer.self_s("array.dispatch"),
        "array.calls": tracer.count("array.dispatch"),
        "ftl.map_self_s": tracer.self_s("ftl.write", "ftl.read"),
        "ftl.gc_self_s": tracer.self_s("ftl.write+gc"),
        "core.self_s": tracer.self_s("core.on_block_erased", "core.on_request"),
        "ftl.swl_recycle_self_s": tracer.self_s("ftl.swl_recycle"),
        "flash.sim_busy_swl_s": tracer.swl_busy_s,
        "flash.program_self_s": tracer.self_s("flash.program"),
        "flash.read_self_s": tracer.self_s("flash.read"),
        "flash.erase_self_s": tracer.self_s("flash.erase"),
        "flash.invalidate_self_s": tracer.self_s("flash.invalidate"),
        "trace.spans": tracer.spans,
    }


def measure_layers(
    workload: Workload, inputs: Inputs, trace_path: Path
) -> dict[str, Any]:
    """Run the per-layer pass of one workload; the detail record."""
    problems: list[str] = []
    # Alternated, so host drift lands on both sides of the ratio alike.
    baseline, with_telemetry = [], []
    for _ in range(OVERHEAD_REPEATS):
        baseline.append(run_repeat(workload, inputs))
        with_telemetry.append(run_repeat(workload, inputs, telemetry=Telemetry()))
    reference = baseline[0]
    for repeat in baseline:
        problems.extend(repeat.violations)
    untraced_s = min(repeat.elapsed_s for repeat in baseline)
    telemetry_s = min(repeat.elapsed_s for repeat in with_telemetry)

    tracer = Tracer()
    traced = traced_repeat(workload, inputs, tracer)
    problems.extend(traced.violations)
    if traced.digest != reference.digest:
        problems.append("traced and untraced simulated statistics differ")
    root_s = tracer.totals["run"][1]
    self_sum = sum(entry[2] for entry in tracer.totals.values())
    if abs(self_sum - root_s) > 0.01 * root_s:
        problems.append(
            f"self times sum to {self_sum:.6f}s, root span is {root_s:.6f}s"
        )
    tracer.write_chrome_trace(trace_path)

    metrics = {
        **standalone(workload, inputs),
        **counts(workload, reference),
        **span_metrics(tracer),
        "sim.pycalls_per_req": python_calls_per_request(workload, inputs),
        # Queue accounting only: ``serve`` minus the applies and the
        # arrival generator it drove.  The closed loop has no queues.
        "service.serve_self_s":
            tracer.self_s("run") if workload.service else 0.0,
        "obs.telemetry_overhead_frac": telemetry_s / untraced_s - 1.0,
        "trace.overhead_frac": traced.elapsed_s / untraced_s - 1.0,
    }
    return {
        "workload": workload.name,
        "seed": inputs.spec.seed,
        "requests": workload.requests,
        "metrics": metrics,
        "digest": reference.digest,
        "traced_digest": traced.digest,
        "spans": {
            name: {"count": int(count), "total_s": total, "self_s": own}
            for name, (count, total, own) in sorted(tracer.totals.items())
        },
        "host": {
            "untraced_elapsed_s": [repeat.elapsed_s for repeat in baseline],
            "telemetry_elapsed_s": [r.elapsed_s for r in with_telemetry],
            "traced_elapsed_s": traced.elapsed_s,
        },
        "attempted": workload.requests * (OVERHEAD_REPEATS + 1),
        "failed": sum(
            workload.requests - repeat.requests for repeat in (*baseline, traced)
        ),
        "problems": problems,
        "correct": not problems,
    }
