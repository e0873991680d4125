"""Named experiment configurations and runners.

This module turns the evaluation protocol of paper Section 5 into
reusable functions:

* :func:`workload_params_for` sizes the synthetic mobile-PC workload to a
  chip's logical space (the paper uses "accesses within the first
  2,097,152 LBAs" of its 1 GB chip);
* :func:`run_replay` replays the resampled endless trace — the one
  replay body, optionally checkpointed or resumed (:mod:`repro.ckpt`);
* :func:`run_until_first_failure` replays until the first block wears
  out (Figure 5);
* :func:`run_fixed_horizon` replays for a fixed amount of simulated time,
  continuing past wear-out exactly like the paper's 10-year Table 4 runs;
* :func:`run_matrix` executes a list of configurations against one shared
  base trace, which is how every figure's k x T sweep is produced;
* :func:`run_service_soak` drives the open-loop service engine
  (:mod:`repro.service`) instead of the replay loop, reporting latency
  percentiles rather than endurance.

Scaled geometries keep all structural parameters of the paper's setup
(pages/block, GC trigger, greedy policy) — see DESIGN.md, Substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.array.device import build_array
from repro.core.policies import LevelerSpec
from repro.flash.geometry import CellType, FlashGeometry
from repro.ftl.base import DEFAULT_OP_RATIO
from repro.ftl.factory import StorageBackend, build_stack
from repro.service.arrival import poisson_arrivals, trace_paced
from repro.service.engine import ServiceEngine
from repro.service.results import ServiceResult
from repro.sim.core import heatmap_kwargs
from repro.sim.engine import Simulator, SimResult, StopCondition
from repro.traces.extend import SegmentResampler
from repro.traces.generator import WorkloadParams
from repro.traces.model import Request
from repro.util.rng import make_rng, spawn_rng

if TYPE_CHECKING:
    from repro.ckpt.runner import CheckpointPolicy
    from repro.fault.plan import FaultPlan
    from repro.obs.telemetry import Telemetry

#: Hard request cap for "endless" replays — a defensive bound far above
#: any first-failure point of the shipped geometries.
DEFAULT_REQUEST_CAP = 100_000_000

#: Default endurance scale for scaled chips: the paper's 10,000-cycle
#: MLC×2 endurance becomes 10,000/SCALE cycles.  Thresholds T stay at
#: the paper's values — the benchmark methodology scales endurance only
#: (see DESIGN.md, Substitutions).  The bench suite overrides this with
#: SCALE = 5 (endurance 2,000); this default suits faster exploratory
#: runs.
DEFAULT_ENDURANCE_SCALE = 20


def scaled_mlc2_geometry(
    num_blocks: int = 128,
    *,
    scale: int = DEFAULT_ENDURANCE_SCALE,
) -> FlashGeometry:
    """MLC×2 organization (128 x 2 KB pages/block) at bench scale.

    Block count and endurance shrink; pages per block, page size, the GC
    trigger fraction, and the Cleaner policy stay exactly the paper's.
    """
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    if scale <= 0 or 10_000 % scale:
        raise ValueError(f"scale must divide 10,000, got {scale}")
    return FlashGeometry(
        num_blocks=num_blocks,
        pages_per_block=128,
        page_size=2048,
        endurance=10_000 // scale,
        cell_type=CellType.MLC2,
        name=f"mlc2-scaled-{num_blocks}b-e{10_000 // scale}",
    )


# Only tests call this today.  ROADMAP item 2 (number audit) decides
# whether T scales with endurance: then this becomes the rule, otherwise
# it goes.
def scaled_threshold(paper_threshold: float, *, scale: int = DEFAULT_ENDURANCE_SCALE) -> float:
    """Map a paper threshold T to a time-compressed equivalent T/scale.

    Provided for exploratory runs that want to compress *both* endurance
    and thresholds.  The shipped benchmarks deliberately do not use it:
    scaling T distorts the race between natural flag setting and forced
    recycles that governs the BET's k > 0 modes (see DESIGN.md).
    """
    scaled = paper_threshold / scale
    if scaled < 1:
        raise ValueError(
            f"T={paper_threshold} at scale {scale} gives T'={scaled} < 1; "
            "use a smaller scale"
        )
    return scaled


@dataclass(frozen=True)
class ExperimentSpec:
    """One storage-backend configuration to evaluate.

    ``seed`` controls the resampling and leveler randomness only; the base
    trace is shared across specs so all systems see identical requests,
    as in the paper's "fair comparisons" setup.

    ``channels=1`` (default) builds the classic single-chip stack —
    bit-identical to the pre-array code path.  ``channels > 1`` builds a
    :class:`~repro.array.DeviceArray` of that many shards, each a full
    copy of ``geometry``, striped per ``striping`` and coordinated per
    ``swl_scope``.
    """

    driver: str
    geometry: FlashGeometry
    #: Wear-leveling mechanism (the paper's SW Leveler or a challenger
    #: kind); ``None`` or a disabled spec is the baseline.
    swl: LevelerSpec | None = None
    op_ratio: float = DEFAULT_OP_RATIO
    alloc_policy: str = "lifo"
    seed: int = 0
    channels: int = 1
    striping: str = "page"
    swl_scope: str = "per-shard"

    def label(self) -> str:
        base = self.driver.upper()
        if self.swl is not None and self.swl.enabled:
            base = f"{base}+{self.swl.label()}"
        if self.channels > 1:
            base = f"{base}x{self.channels}[{self.striping},{self.swl_scope}]"
        return base

    def build(
        self,
        *,
        telemetry: "Telemetry | None" = None,
        fault_plan: "FaultPlan | None" = None,
    ) -> StorageBackend:
        """Wire the backend; ``telemetry`` attaches its event bus.

        One channel builds a :func:`~repro.ftl.factory.build_stack`
        stack, more a :func:`~repro.array.device.build_array` array; both
        draw the leveler's randomness from the spec seed's ``"leveler"``
        stream.  The bus rides alongside the stack without touching any
        RNG stream, so a telemetry-on build replays bit-identically to a
        telemetry-off one.  ``fault_plan`` attaches one fault injector
        per shard (each with its own derived seed).
        """
        rng = spawn_rng(make_rng(self.seed), "leveler")
        bus = telemetry.bus if telemetry is not None else None
        if self.channels == 1:
            injector = None
            if fault_plan is not None:
                from repro.fault.injector import FaultInjector

                injector = FaultInjector(fault_plan)
            return build_stack(
                self.geometry,
                self.driver,
                self.swl,
                op_ratio=self.op_ratio,
                alloc_policy=self.alloc_policy,
                rng=rng,
                injector=injector,
                bus=bus,
            )
        return build_array(
            self.geometry,
            self.driver,
            self.swl,
            channels=self.channels,
            striping=self.striping,
            swl_scope=self.swl_scope,
            op_ratio=self.op_ratio,
            alloc_policy=self.alloc_policy,
            rng=rng,
            fault_plan=fault_plan,
            bus=bus,
        )


def logical_sectors_of(spec: ExperimentSpec) -> int:
    """Sector count of the logical space a spec's backend will export."""
    backend = spec.build()
    return backend.num_logical_pages * backend.sectors_per_page


def workload_params_for(
    spec: ExperimentSpec,
    *,
    duration: float,
    seed: int = 0,
    **overrides: object,
) -> WorkloadParams:
    """Workload parameters sized to a spec's logical space.

    Additional :class:`~repro.traces.generator.WorkloadParams` fields may
    be overridden by keyword (e.g. ``hot_fraction=0.2``).
    """
    base = WorkloadParams(
        total_sectors=logical_sectors_of(spec),
        duration=duration,
        seed=seed,
    )
    return replace(base, **overrides) if overrides else base


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_replay(
    spec: ExperimentSpec,
    base_trace: Sequence[Request],
    horizon: float | None = None,
    *,
    warmup: Sequence[Request] | None = None,
    skip_reads: bool = True,
    request_cap: int = DEFAULT_REQUEST_CAP,
    telemetry: "Telemetry | None" = None,
    fault_plan: "FaultPlan | None" = None,
    checkpoint: "CheckpointPolicy | None" = None,
    resume_from: str | Path | None = None,
) -> SimResult:
    """Replay the resampled endless trace: the body of every replay runner.

    ``horizon=None`` stops at the first worn-out block; a horizon replays
    that many simulated seconds and lets wear-out pass.

    The warmup replays the workload's pre-existing data (every written
    extent once) at time zero, so static extents occupy blocks from the
    first simulated second — as on the paper's month-old machine.  The
    handful of erases it causes are counted like any others.

    Wear experiments skip read requests by default: NAND reads neither
    program nor erase, so every Section 5 metric is unchanged, and replay
    runs roughly twice as fast.

    ``telemetry`` attaches its event bus to the backend and carries the
    wear-heatmap preferences into the engine; ``fault_plan`` attaches
    fault injectors (see :meth:`ExperimentSpec.build`).

    ``checkpoint`` writes an image of the whole stack between resampled
    segments per :class:`~repro.ckpt.runner.CheckpointPolicy`; it changes
    no RNG stream and no replay decision, so the result is the same.
    ``resume_from`` restores such an image, written by a replay of the
    same spec, mode and base trace (a mismatch raises
    :class:`~repro.ckpt.image.CheckpointMismatchError`), and continues
    exactly where it froze; the warmup is not replayed, its effects are
    part of the restored state.  An interrupted replay resumed this way
    returns a result byte-identical to the uninterrupted one.
    """
    simulator = Simulator(
        spec.build(telemetry=telemetry, fault_plan=fault_plan),
        skip_reads=skip_reads,
        **heatmap_kwargs(telemetry),
    )
    resampler = SegmentResampler(
        base_trace, rng=spawn_rng(make_rng(spec.seed), "resampler")
    )
    requests: Iterator[Request] = resampler.iter_requests()
    if checkpoint is not None or resume_from is not None:
        # Only a replay that writes or reads an image imports repro.ckpt
        # and digests the traces the image is pinned to: digesting a
        # one-day base trace (327,075 requests) costs about 0.45 s on a
        # Xeon core, as much as replaying hours of it.
        from repro.ckpt import runner as images

        identity = images.replay_identity(
            spec, base_trace, horizon=horizon, warmup=warmup,
            request_cap=request_cap, skip_reads=skip_reads,
            fault_plan=fault_plan,
        )
        if resume_from is not None:
            images.restore_replay(resume_from, identity, simulator, resampler)
            warmup = None  # its effects are part of the restored state
        if checkpoint is not None:
            requests = images.checkpointed_requests(
                checkpoint, identity, simulator, resampler
            )
    if warmup:
        for request in warmup:
            simulator.apply(request)
    stop = StopCondition(
        until_first_failure=horizon is None,
        max_time=horizon,
        max_requests=request_cap,
    )
    result = simulator.run(requests, stop, label=spec.label())
    if telemetry is not None:
        # Drain any batched events so collector/exporter state read
        # directly off the facade is complete the moment the run returns.
        telemetry.flush()
    return result


def run_until_first_failure(
    spec: ExperimentSpec,
    base_trace: Sequence[Request],
    *,
    warmup: Sequence[Request] | None = None,
    skip_reads: bool = True,
    request_cap: int = DEFAULT_REQUEST_CAP,
    telemetry: "Telemetry | None" = None,
) -> SimResult:
    """Replay the resampled endless trace until the first block wears out.

    This is the protocol behind Figure 5: "a virtually unlimited
    experiment trace was derived ... by randomly picking up any 10-minute
    trace segment".  The returned result's ``first_failure_years`` is the
    y-axis value.
    """
    return run_replay(
        spec, base_trace, None, warmup=warmup, skip_reads=skip_reads,
        request_cap=request_cap, telemetry=telemetry,
    )


def run_fixed_horizon(
    spec: ExperimentSpec,
    base_trace: Sequence[Request],
    horizon: float,
    *,
    warmup: Sequence[Request] | None = None,
    skip_reads: bool = True,
    request_cap: int = DEFAULT_REQUEST_CAP,
    telemetry: "Telemetry | None" = None,
) -> SimResult:
    """Replay the resampled trace for ``horizon`` simulated seconds.

    Wear-out does not stop the run (paper Table 4: "trace simulations of
    10 years even though some blocks were worn out").
    """
    return run_replay(
        spec, base_trace, horizon, warmup=warmup, skip_reads=skip_reads,
        request_cap=request_cap, telemetry=telemetry,
    )


def run_service_soak(
    spec: ExperimentSpec,
    base_trace: Sequence[Request],
    *,
    rate: float | None = None,
    trace_speedup: float | None = None,
    max_requests: int | None = None,
    max_time: float | None = None,
    queue_depth: int = 64,
    warmup: Sequence[Request] | None = None,
    telemetry: "Telemetry | None" = None,
) -> ServiceResult:
    """Serve the resampled endless trace through the open-loop engine.

    Where the replay runners measure *wear*, this one measures *service*:
    requests are re-timed by an arrival model — ``rate`` selects an
    open-loop Poisson process (``rate`` requests per simulated second,
    e.g. :func:`repro.service.arrival.open_loop_rate` for a client
    population), ``trace_speedup`` keeps the trace's own pacing
    compressed by that factor — and flow through bounded per-channel
    FIFO queues, yielding host-visible latency percentiles.  Exactly one
    arrival model must be chosen.

    Arrival randomness draws from a dedicated ``"arrivals"`` stream of
    the spec's seed, so enabling service mode never perturbs the
    resampler or leveler randomness; reads are replayed (never skipped):
    their service time is part of the latency being measured.
    """
    if (rate is None) == (trace_speedup is None):
        raise ValueError(
            "choose exactly one arrival model: "
            "rate (Poisson) or trace_speedup (trace-paced)"
        )
    engine = ServiceEngine(
        spec.build(telemetry=telemetry),
        queue_depth=queue_depth,
        telemetry=telemetry,
        **heatmap_kwargs(telemetry),
    )
    if warmup:
        for request in warmup:
            engine.apply(request)
    rng = make_rng(spec.seed)
    endless = SegmentResampler(
        base_trace, rng=spawn_rng(rng, "resampler")
    ).iter_requests()
    if rate is not None:
        arrivals = poisson_arrivals(endless, rate, spawn_rng(rng, "arrivals"))
    else:
        assert trace_speedup is not None
        arrivals = trace_paced(endless, speedup=trace_speedup)
    return engine.serve(
        arrivals,
        max_requests=max_requests,
        max_time=max_time,
        label=spec.label(),
    )


def run_matrix(
    specs: list[ExperimentSpec],
    base_trace: Sequence[Request],
    *,
    horizon: float | None = None,
    warmup: Sequence[Request] | None = None,
    request_cap: int = DEFAULT_REQUEST_CAP,
) -> list[SimResult]:
    """Run many specs over one shared base trace, in spec order.

    ``horizon=None`` selects first-failure mode; otherwise fixed-horizon.
    Each cell is fully deterministic — every stochastic stream derives
    from the spec's own seed — so the cells are independent.  To spread
    them over worker processes, or to survive crashes, kills and hangs,
    use :func:`repro.ckpt.supervisor.run_supervised_matrix`, the one
    runner that puts cells in other processes (DESIGN.md §5b).
    """
    return [
        run_replay(
            spec, base_trace, horizon, warmup=warmup, request_cap=request_cap
        )
        for spec in specs
    ]
