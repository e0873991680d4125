"""The six benchmark workloads: what each one feeds the stack.

Every workload addresses the same capacity (256 blocks x 128 pages x 2 KB,
as one chip or as 4 channels of 64 blocks) so rows are comparable.  The
request counts are constants of the benchmark: they were sized once, at
the commit that added ``bench/``, so that one timed region takes about a
second on the reference host, and they never change with the code under
test.  ``--seed`` feeds every generator and ``ExperimentSpec.seed``; the
program only ever sees the generated ``Request`` objects.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from repro.core.config import SWLConfig
from repro.ftl.base import DEFAULT_OP_RATIO
from repro.ftl.factory import StorageBackend
from repro.service.arrival import poisson_arrivals
from repro.service.engine import ServiceEngine
from repro.sim.engine import Simulator
from repro.sim.experiment import (
    ExperimentSpec,
    logical_sectors_of,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.extend import SegmentResampler
from repro.traces.generator import DAY, MobilePCWorkload
from repro.traces.model import Op, Request
from repro.util.rng import make_rng, spawn_rng
from repro.workloads import ShapeParams, make_shape

#: Blocks of the whole device, split evenly over the channels.
TOTAL_BLOCKS = 256
#: Endurance compression of the scaled MLC x2 part (10,000 / 100 cycles).
ENDURANCE_SCALE = 100
#: Zipf exponent of the hotspot shape (YCSB's zipfian constant).
HOTSPOT_THETA = 0.99
#: Sectors per warm-up request when a workload prefills its whole space.
PREFILL_SECTORS = 256
#: Times the inputs are generated (same result each time) to time it.
GENERATIONS = 3

#: Seed of the one "collected" mobile-PC base trace.  As in the paper's
#: protocol the collected trace is a fixed artifact and ``--seed`` drives
#: the 10-minute segment resampling (plus arrivals and the leveler): a
#: fresh 1-day trace per seed lays out only ~5 hot extents on this small
#: device, and seed-to-seed differences in that layout (WAF +-10 %, p99
#: +-30 %) would drown every bound.
BASE_TRACE_SEED = 20070604

#: Open-loop service workload: Poisson rates (requests per simulated
#: second), the rate the timed repeats and the latency percentiles use,
#: and the limits a rate must meet.  The channels saturate near 880
#: req/s; the rates sit well below, at two thirds of, and beyond that, so
#: each is clearly inside or outside the limit on every seed.
SERVICE_RATES = (300.0, 600.0, 1000.0)
REFERENCE_RATE = 300.0
QUEUE_DEPTH = 32
P99_LIMIT_S = 0.300
BACKLOG_LIMIT_S = 1.0


@dataclass(frozen=True)
class Workload:
    """One named configuration of trace source, backend, and load shape."""

    name: str
    #: ``"mobilepc"`` (1-day base trace, resampled) or a shape name of
    #: :func:`repro.workloads.make_shape`.
    source: str
    #: Requests in one timed region.
    requests: int
    driver: str = "ftl"
    channels: int = 1
    threshold: float = 100.0
    op_ratio: float = DEFAULT_OP_RATIO
    swl_scope: str = "per-shard"
    request_sectors: int = 8
    read_fraction: float = 0.0
    #: Untimed warm-up of a shape source: the whole logical space written
    #: once, or (``head_start``) only a seeded number of pages, so block
    #: boundaries fall at a seed-dependent phase of the otherwise
    #: seed-independent sequential stream.  The mobile-PC source always
    #: replays its own disk image.
    head_start: bool = False
    skip_reads: bool = False
    #: Open loop on the virtual clock (``ServiceEngine.serve``) instead
    #: of the closed replay loop (``Simulator.run``).
    service: bool = False


#: Why each one exists — which layer dominates it and which is idle — is
#: recorded in ``BENCHMARK.json`` and ``bench/README.md``.
WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="mobilepc_ftl_1ch",
        source="mobilepc",
        requests=75_000,
        skip_reads=True,
    ),
    Workload(
        name="seqwrite_ftl_1ch",
        source="sequential",
        requests=22_000,
        request_sectors=64,
        head_start=True,
    ),
    Workload(
        name="uniform_gc_ftl_1ch",
        source="uniform",
        requests=7_000,
    ),
    Workload(
        name="hotspot_swl_nftl_1ch",
        source="hotspot",
        requests=4_500,
        driver="nftl",
        threshold=4.0,
    ),
    Workload(
        name="readmostly_ftl_4ch",
        source="uniform",
        requests=45_000,
        channels=4,
        op_ratio=0.3,
        swl_scope="global",
        request_sectors=32,
        read_fraction=0.8,
    ),
    Workload(
        name="service_poisson_nftl_4ch",
        source="mobilepc",
        requests=45_000,
        driver="nftl",
        channels=4,
        service=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass
class Inputs:
    """Everything generated from the seed, once per process."""

    spec: ExperimentSpec
    warmup: list[Request]
    #: Base trace the timed region resamples (mobile-PC source) ...
    base: list[Request] | None
    #: ... or the materialized request list it replays (shape sources).
    trace: list[Request] | None
    gen_s: float          #: host seconds spent generating
    gen_requests: int     #: requests the generator produced in ``gen_s``


def spec_for(workload: Workload, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        driver=workload.driver,
        geometry=scaled_mlc2_geometry(
            TOTAL_BLOCKS // workload.channels, scale=ENDURANCE_SCALE
        ),
        swl=SWLConfig(threshold=workload.threshold, k=0),
        op_ratio=workload.op_ratio,
        seed=seed,
        channels=workload.channels,
        striping="page",
        swl_scope=workload.swl_scope,
    )


def _sequential_fill(sectors: int) -> list[Request]:
    return [
        Request(0.0, Op.WRITE, lba, min(PREFILL_SECTORS, sectors - lba))
        for lba in range(0, sectors, PREFILL_SECTORS)
    ]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's trace and warm-up from ``seed``.

    Generation is the larger part of ``setup_s`` and happens once per
    sweep for the program's users, but a single timing of it is noisy:
    it is done ``GENERATIONS`` times and ``gen_s`` is the median.
    """
    times = []
    for _ in range(GENERATIONS):
        inputs = None  # free the previous copy before building the next
        inputs = _generate(workload, seed)
        times.append(inputs.gen_s)
    assert inputs is not None
    inputs.gen_s = statistics.median(times)
    return inputs


def _generate(workload: Workload, seed: int) -> Inputs:
    spec = spec_for(workload, seed)
    started = time.perf_counter()
    if workload.source == "mobilepc":
        generator = MobilePCWorkload(
            workload_params_for(spec, duration=DAY, seed=BASE_TRACE_SEED)
        )
        base = generator.requests()
        gen_s = time.perf_counter() - started
        return Inputs(
            spec, generator.prefill_requests(), base, None, gen_s, len(base)
        )
    total_sectors = logical_sectors_of(spec)
    shape = make_shape(
        workload.source,
        ShapeParams(
            total_sectors=total_sectors,
            request_sectors=workload.request_sectors,
            read_fraction=workload.read_fraction,
            seed=seed,
        ),
        theta=HOTSPOT_THETA,
    )
    trace = list(islice(shape.iter_requests(), workload.requests))
    gen_s = time.perf_counter() - started
    if workload.head_start:
        geometry = spec.geometry
        pages = spawn_rng(make_rng(seed), "bench:phase").randrange(
            1, 16 * geometry.pages_per_block
        )
        warmup = _sequential_fill(pages * geometry.sectors_per_page)
    else:
        warmup = _sequential_fill(total_sectors)
    return Inputs(spec, warmup, None, trace, gen_s, len(trace))


def request_stream(
    workload: Workload, inputs: Inputs, rate: float = REFERENCE_RATE
) -> Iterable[Request]:
    """A fresh request stream for one repeat (same requests every call).

    RNG streams are derived exactly as ``repro.sim.experiment`` derives
    them, so a repeat here replays what ``run_fixed_horizon`` /
    ``run_service_soak`` would.
    """
    if inputs.trace is not None:
        return inputs.trace
    assert inputs.base is not None
    rng = make_rng(inputs.spec.seed)
    endless: Iterator[Request] = SegmentResampler(
        inputs.base, rng=spawn_rng(rng, "resampler")
    ).iter_requests()
    if workload.service:
        return poisson_arrivals(endless, rate, spawn_rng(rng, "arrivals"))
    return endless


def build_engine(
    workload: Workload,
    backend: StorageBackend,
    *,
    telemetry: object | None = None,
    replay_cls: type[Simulator] = Simulator,
    service_cls: type[ServiceEngine] = ServiceEngine,
) -> Simulator | ServiceEngine:
    """Engine of the workload's load shape over ``backend``."""
    if workload.service:
        return service_cls(
            backend, queue_depth=QUEUE_DEPTH, telemetry=telemetry  # type: ignore[arg-type]
        )
    return replay_cls(backend, skip_reads=workload.skip_reads)
