"""Command-line interface: ``python -m repro <command>``.

These commands cover the library's main workflows without writing code:

``generate-trace``
    Synthesize a mobile-PC trace (Section 5.1 statistics) to a file.
``simulate``
    Replay a trace file (or a freshly generated one) against a chosen
    stack and print the wear report.
``sweep``
    Run the paper's k x T first-failure sweep for one driver and print a
    Figure 5-style table.
``serve``
    Open-loop service soak: re-time the workload with an arrival model
    (Poisson client population or trace-paced), push it through bounded
    per-channel queues, and report p50/p95/p99 request latency —
    optionally comparing SWL-off against SWL-on at each threshold T.
``endure``
    Project device lifetime (WAF, TBW, DWPD, first-failure horizon)
    across generated workload shapes, SWL-on vs SWL-off, single- and
    multi-channel.
``arena``
    Policy tournament: race the paper's SW Leveler against the
    challenger mechanisms (dual-pool, cache-based avoidance, SoftWear
    scrubbing) through the shared workload and fault matrices and print
    the leaderboard — endurance, extra erases, WAF, controller RAM, p99.
``faults``
    Run a fault-injection campaign (transient-fault soak plus a swept
    power-loss crash-consistency check) and report the verdict; exits
    non-zero on any invariant violation.
``trace``
    Replay with telemetry enabled and export the full artifact set —
    JSONL event trace, Chrome/Perfetto ``trace_event`` JSON, Prometheus
    metrics text, and wear heatmaps (see :mod:`repro.obs`).

Every command accepts ``--seed`` and is fully deterministic.  The global
``--log-level`` / ``--log-channel`` options (before the command name)
enable the library's diagnostics logging channels.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import TypeVar

from repro.arena.report import arena_report, leaderboard_table
from repro.arena.tournament import DEFAULT_ROSTER, DEFAULT_WORKLOADS, run_arena
from repro.core.config import SWLConfig
from repro.endurance import endurance_cells, run_endurance_matrix
from repro.fault.campaign import run_fault_campaign
from repro.fault.plan import FaultPlan
from repro.obs.telemetry import DEFAULT_HEATMAP_BINS, Telemetry
from repro.service.arrival import open_loop_rate
from repro.service.results import ServiceResult
from repro.sim.experiment import (
    ExperimentSpec,
    run_fixed_horizon,
    run_service_soak,
    run_until_first_failure,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.sim.reporting import (
    campaign_markdown_report,
    channel_latency_table,
    endurance_markdown_report,
    endurance_table,
    fault_campaign_report,
    fault_tables,
    latency_table,
    markdown_report,
    replay_detail_table,
    replay_summary_table,
    service_markdown_report,
    shard_table,
    supervision_table,
)
from repro.traces.generator import (
    DAY,
    DEFAULT_PHASE_PERIOD,
    DEFAULT_THETA,
    SHAPE_NAMES,
    MobilePCWorkload,
    WorkloadParams,
)
from repro.traces.io import load_trace, save_trace
from repro.traces.model import Trace
from repro.traces.stats import summarize
from repro.util.diagnostics import configure_logging
from repro.util.tables import Table

_Result = TypeVar("_Result")


def _add_chip_arguments(parser: argparse.ArgumentParser, driver: str) -> None:
    parser.add_argument("--driver", choices=("ftl", "nftl"), default=driver,
                        help=f"translation layer (default: {driver})")
    parser.add_argument("--blocks", type=int, default=64,
                        help="simulated chip size in blocks (default: 64)")
    parser.add_argument("--scale", type=int, default=5,
                        help="endurance scale: cycles = 10000/scale (default: 5)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def _add_stack_arguments(parser: argparse.ArgumentParser) -> None:
    _add_chip_arguments(parser, "nftl")
    parser.add_argument("--threshold", "-T", type=float, default=100.0,
                        help="SWL unevenness threshold T (default: 100)")
    parser.add_argument("--k", type=int, default=0,
                        help="BET resolution exponent k (default: 0)")
    parser.add_argument("--no-swl", action="store_true",
                        help="run the baseline without static wear leveling")
    parser.add_argument("--channels", type=int, default=1,
                        help="channel shards in the device array (default: 1 "
                             "= the classic single-chip stack)")
    parser.add_argument("--striping", choices=("page", "range"),
                        default="page",
                        help="logical-page striping across channels: "
                             "page-interleaved round-robin or contiguous "
                             "ranges (default: page)")
    parser.add_argument("--swl-scope", choices=("per-shard", "global"),
                        default="per-shard",
                        help="wear-leveling coordination: independent "
                             "per-shard thresholds or one array-wide "
                             "global-T coordinator (default: per-shard)")


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", action="store_true",
                        help="attach the telemetry event bus (in-memory "
                             "metrics; no files unless --trace-out)")
    parser.add_argument("--trace-out", metavar="DIR", default=None,
                        help="write trace.jsonl, trace.chrome.json, and "
                             "metrics.prom into DIR (implies --telemetry)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Static wear leveling for flash storage (DAC 2007 reproduction)",
    )
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="enable diagnostics logging at LEVEL "
                             "(DEBUG, INFO, WARNING, ...)")
    parser.add_argument("--log-channel", action="append", metavar="NAME",
                        help="restrict logging to a channel (repeatable; "
                             "e.g. leveler, fault, obs); default: every "
                             "repro.* channel")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate-trace", help="synthesize a mobile-PC trace to a file"
    )
    generate.add_argument("output", help="output path (.csv or binary)")
    generate.add_argument("--sectors", type=int, default=262_144,
                          help="LBA space in 512B sectors (default: 262144)")
    generate.add_argument("--days", type=float, default=1.0,
                          help="trace duration in days (default: 1)")
    generate.add_argument("--seed", type=int, default=0, help="master seed")

    simulate = commands.add_parser(
        "simulate", help="replay a trace against a stack and report wear"
    )
    simulate.add_argument("--trace", help="trace file; omit to synthesize one")
    simulate.add_argument("--days", type=float, default=1.0,
                          help="generated-trace duration in days (default: 1)")
    _add_stack_arguments(simulate)
    _add_telemetry_arguments(simulate)

    sweep = commands.add_parser(
        "sweep", help="run the paper's k x T first-failure sweep (Figure 5)"
    )
    sweep.add_argument("--thresholds", type=float, nargs="+",
                       default=[100, 1000], help="T values (default: 100 1000)")
    sweep.add_argument("--ks", type=int, nargs="+", default=[0],
                       help="k values (default: 0)")
    sweep.add_argument("--report", metavar="PATH",
                       help="also write a markdown report to PATH")
    sweep.add_argument("--resume", metavar="DIR", default=None,
                       help="run under the fault-tolerant campaign "
                            "supervisor with scratch directory DIR: cells "
                            "checkpoint as they run, and re-running with "
                            "the same DIR resumes interrupted cells, skips "
                            "finished ones and reruns changed ones")
    sweep.add_argument("--workers", type=int, default=1,
                       help="supervised worker processes (default: 1; "
                            "needs --resume)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="kill and retry a supervised attempt that "
                            "writes no checkpoint for this many seconds "
                            "(default: none)")
    sweep.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per supervised cell before "
                            "quarantine (default: 3)")
    _add_stack_arguments(sweep)
    _add_telemetry_arguments(sweep)

    trace = commands.add_parser(
        "trace",
        help="replay with telemetry on and export the trace artifact set",
    )
    trace.add_argument("output",
                       help="output directory for trace.jsonl, "
                            "trace.chrome.json, and metrics.prom")
    trace.add_argument("--hours", type=float, default=2.0,
                       help="simulated replay horizon in hours (default: 2)")
    trace.add_argument("--days", type=float, default=0.25,
                       help="generated base-trace duration in days "
                            "(default: 0.25)")
    trace.add_argument("--heatmap-bins", type=int,
                       default=DEFAULT_HEATMAP_BINS,
                       help="wear-heatmap grid width in cells "
                            f"(default: {DEFAULT_HEATMAP_BINS})")
    trace.add_argument("--heatmap-interval", type=float, default=None,
                       help="simulated seconds between wear heatmaps "
                            "(default: horizon/16)")
    trace.add_argument("--log-events", action="store_true",
                       help="also mirror events onto the repro.* log "
                            "channels")
    _add_stack_arguments(trace)

    serve = commands.add_parser(
        "serve",
        help="open-loop service soak with tail-latency accounting",
    )
    serve.add_argument("--mode", choices=("poisson", "trace"),
                       default="poisson",
                       help="arrival model: open-loop Poisson client "
                            "population or trace-paced (default: poisson)")
    serve.add_argument("--clients", type=int, default=1000,
                       help="simulated concurrent clients, poisson mode "
                            "(default: 1000)")
    serve.add_argument("--think-time", type=float, default=1.0,
                       help="mean client think time in seconds, poisson "
                            "mode (default: 1.0)")
    serve.add_argument("--rate", type=float, default=None,
                       help="explicit arrival rate in requests/s; "
                            "overrides --clients/--think-time")
    serve.add_argument("--speedup", type=float, default=1.0,
                       help="trace-mode timestamp compression factor "
                            "(default: 1 = recorded pacing)")
    serve.add_argument("--requests", type=int, default=1_000_000,
                       help="requests to serve (default: 1000000)")
    serve.add_argument("--hours", type=float, default=None,
                       help="virtual-time bound in hours (default: "
                            "bounded by --requests only)")
    serve.add_argument("--depth", type=int, default=64,
                       help="per-channel queue-depth bound (default: 64)")
    serve.add_argument("--days", type=float, default=0.25,
                       help="generated base-trace duration in days "
                            "(default: 0.25)")
    serve.add_argument("--compare", action="store_true",
                       help="run an SWL-off baseline plus SWL-on at each "
                            "--thresholds value instead of one config")
    serve.add_argument("--thresholds", type=float, nargs="+",
                       default=[100, 1000],
                       help="T values for --compare (default: 100 1000)")
    serve.add_argument("--report", metavar="PATH",
                       help="also write a markdown latency report to PATH")
    _add_stack_arguments(serve)
    _add_telemetry_arguments(serve)

    endure = commands.add_parser(
        "endure",
        help="project device lifetime (WAF/TBW/DWPD) across workload shapes",
    )
    endure.add_argument("--shapes", nargs="+", choices=SHAPE_NAMES,
                        default=["hotspot", "sequential", "mixed", "phase"],
                        help="workload shapes to project (default: hotspot "
                             "sequential mixed phase)")
    endure.add_argument("--horizon-days", type=float, default=0.25,
                        help="measured replay horizon per cell in simulated "
                             "days (default: 0.25)")
    endure.add_argument("--rate", type=float, default=4.0,
                        help="workload request rate in req/s (default: 4, "
                             "the mobile-PC trace's ballpark)")
    endure.add_argument("--theta", type=float, default=DEFAULT_THETA,
                        help="Zipf exponent of hotspot/phase shapes "
                             f"(default: {DEFAULT_THETA})")
    endure.add_argument("--period", type=float, default=DEFAULT_PHASE_PERIOD,
                        help="hot-set migration period of the phase shape in "
                             f"seconds (default: {DEFAULT_PHASE_PERIOD:g})")
    endure.add_argument("--workers", type=int, default=None,
                        help="worker processes for the cell matrix "
                             "(default: serial)")
    endure.add_argument("--report", metavar="PATH",
                        help="also write a markdown projection report to PATH")
    _add_stack_arguments(endure)

    arena = commands.add_parser(
        "arena",
        help="policy tournament: paper SWL vs challenger wear levelers",
    )
    arena.add_argument("--levelers", nargs="+",
                       choices=list(DEFAULT_ROSTER),
                       default=list(DEFAULT_ROSTER),
                       help="roster entries to race "
                            f"(default: {' '.join(DEFAULT_ROSTER)})")
    arena.add_argument("--workloads", nargs="+", choices=SHAPE_NAMES,
                       default=list(DEFAULT_WORKLOADS),
                       help="workload shapes of the matrix "
                            f"(default: {' '.join(DEFAULT_WORKLOADS)})")
    arena.add_argument("--horizon-days", type=float, default=0.25,
                       help="replay horizon per cell in simulated days "
                            "(default: 0.25)")
    arena.add_argument("--rate", type=float, default=4.0,
                       help="workload request rate in req/s (default: 4)")
    arena.add_argument("--service-requests", type=int, default=2000,
                       help="requests in the p99 service soak "
                            "(default: 2000)")
    arena.add_argument("--no-faults", action="store_true",
                       help="skip the per-leveler fault campaign")
    arena.add_argument("--workers", type=int, default=None,
                       help="worker processes for the workload matrix "
                            "(default: serial)")
    arena.add_argument("--report", metavar="PATH",
                       help="also write the markdown leaderboard to PATH")
    arena.add_argument("--json", metavar="PATH",
                       help="also write the full arena result as JSON to "
                            "PATH")
    # The arena races its own levelers on a plain single-channel stack.
    _add_chip_arguments(arena, "ftl")
    arena.set_defaults(no_swl=True, channels=1, striping="page",
                       swl_scope="per-shard")

    faults = commands.add_parser(
        "faults", help="run a fault-injection and crash-consistency campaign"
    )
    faults.add_argument("--erase-fail-prob", type=float, default=0.02,
                        help="transient erase-failure probability (default: 0.02)")
    faults.add_argument("--erase-weibull-shape", type=float, default=None,
                        help="wear-dependent erase hazard shape; omit for a "
                             "flat rate")
    faults.add_argument("--program-fail-prob", type=float, default=0.001,
                        help="per-program grown-bad probability (default: 0.001)")
    faults.add_argument("--read-ber", type=float, default=1e-8,
                        help="raw read bit-error rate (default: 1e-8)")
    faults.add_argument("--soak-writes", type=int, default=2000,
                        help="host writes in the transient-fault soak "
                             "(default: 2000)")
    faults.add_argument("--loss-points", type=int, default=50,
                        help="power-loss points swept in the crash phase "
                             "(default: 50)")
    faults.add_argument("--report", metavar="PATH",
                        help="also write a markdown campaign report to PATH")
    _add_stack_arguments(faults)
    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _command_generate(args: argparse.Namespace) -> int:
    params = WorkloadParams(
        total_sectors=args.sectors, duration=args.days * DAY, seed=args.seed
    )
    workload = MobilePCWorkload(params)
    trace = workload.prefill_requests() + workload.requests()
    count = save_trace(args.output, trace)
    summary = summarize(trace, params.total_sectors)
    print(f"wrote {count} requests to {args.output}")
    print(f"  written LBA coverage: {100 * summary.written_lba_fraction:.2f}%")
    print(f"  write rate: {summary.write_rate:.2f}/s, "
          f"read rate: {summary.read_rate:.2f}/s")
    return 0


def _spec(args: argparse.Namespace) -> ExperimentSpec:
    geometry = scaled_mlc2_geometry(args.blocks, scale=args.scale)
    swl = None if args.no_swl else SWLConfig(threshold=args.threshold, k=args.k)
    return ExperimentSpec(
        args.driver, geometry, swl, seed=args.seed,
        channels=args.channels, striping=args.striping,
        swl_scope=args.swl_scope,
    )


def _swl_cells(
    spec: ExperimentSpec, thresholds: list[float], ks: list[int]
) -> list[ExperimentSpec]:
    """The SWL-off baseline, then SWL-on at every (T, k) point."""
    return [replace(spec, swl=None)] + [
        replace(spec, swl=SWLConfig(threshold=threshold, k=k))
        for threshold in thresholds
        for k in ks
    ]


def _mobile_pc_trace(
    spec: ExperimentSpec, args: argparse.Namespace, days: float
) -> tuple[Trace, Trace]:
    """The synthetic mobile-PC base trace sized for ``spec``, and its prefill."""
    params = workload_params_for(spec, duration=days * DAY, seed=args.seed + 1)
    workload = MobilePCWorkload(params)
    return workload.requests(), workload.prefill_requests()


def _title(args: argparse.Namespace, what: str) -> str:
    return (f"{what}, {args.driver.upper()} "
            f"({args.blocks} blocks, endurance {10_000 // args.scale})")


def _write_report(path: str, document: str) -> None:
    Path(path).write_text(document)
    print(f"\nmarkdown report written to {path}")


def _make_telemetry(args: argparse.Namespace, run_name: str) -> Telemetry | None:
    """Telemetry per the command's ``--telemetry``/``--trace-out`` flags.

    Heatmaps default to one per simulated day — first-failure horizons
    are open-ended, and the engine's decimation bounds the series.
    """
    if args.trace_out:
        return Telemetry.to_directory(
            args.trace_out, run_name=run_name, heatmap_interval=DAY
        )
    if args.telemetry:
        return Telemetry(run_name=run_name, heatmap_interval=DAY)
    return None


def _run_cells(
    args: argparse.Namespace,
    cells: list[ExperimentSpec],
    run: Callable[[ExperimentSpec, Telemetry | None], _Result],
) -> list[_Result]:
    """Run each cell with its own artifact directory under ``--trace-out``.

    A bare ``--telemetry`` has nowhere to put a whole matrix's traces,
    so the cells then run without telemetry.
    """
    if args.telemetry and not args.trace_out:
        print(f"{args.command} telemetry over several configurations needs "
              "--trace-out DIR (one artifact set per configuration); "
              "continuing without telemetry", file=sys.stderr)
    results = []
    for cell in cells:
        telemetry = None
        if args.trace_out:
            directory = re.sub(r"[^A-Za-z0-9._+=-]+", "_", cell.label())
            telemetry = Telemetry.to_directory(
                Path(args.trace_out) / directory,
                run_name=cell.label(), heatmap_interval=DAY,
            )
        results.append(run(cell, telemetry))
        if telemetry is not None:
            telemetry.finish()
    if args.trace_out:
        print(f"telemetry artifacts written under {args.trace_out}/")
    return results


def _print_telemetry_summary(telemetry: Telemetry, heatmaps: int) -> None:
    files = telemetry.finish()
    snapshot = telemetry.snapshot()
    rows: list[list[object]] = [
        ["metrics collected",
         len(snapshot.counters) + len(snapshot.gauges)
         + len(snapshot.histograms)],
        ["wear heatmaps", heatmaps],
    ]
    if telemetry.jsonl is not None:
        rows.append(["events traced", telemetry.jsonl.records_written])
    for kind, path in files.items():
        rows.append([f"{kind} file", str(path)])
    print()
    print(Table(["telemetry", "value"], rows, "Telemetry").text())
    if "chrome" in files:
        print(f"  open {files['chrome']} in Perfetto (https://ui.perfetto.dev)")


def _command_simulate(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if args.trace:
        trace, warmup = load_trace(args.trace), None
    else:
        trace, warmup = _mobile_pc_trace(spec, args, args.days)
    telemetry = _make_telemetry(args, spec.label())
    result = run_until_first_failure(
        spec, trace, warmup=warmup, telemetry=telemetry
    )
    print(replay_detail_table(result, title="Simulation report").text())
    if result.shard_erase_distributions:
        print()
        print(shard_table(result).text())
    if telemetry is not None:
        _print_telemetry_summary(telemetry, len(result.heatmaps))
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    spec = _spec(args)
    trace, warmup = _mobile_pc_trace(spec, args, 1.0)
    cells = _swl_cells(spec, args.thresholds, args.ks)
    title = f"{args.driver.upper()} first-failure sweep"
    if not args.resume:
        results = _run_cells(
            args, cells,
            lambda cell, telemetry: run_until_first_failure(
                cell, trace, warmup=warmup, telemetry=telemetry
            ),
        )
        print(replay_summary_table(
            results, title=_title(args, "First-failure sweep")
        ).text())
        if args.report:
            _write_report(args.report, markdown_report(results, title=title))
        return 0

    # ``--resume DIR``: the same sweep as a supervised campaign.
    from repro.ckpt.supervisor import SupervisorPolicy, run_supervised_matrix

    campaign = run_supervised_matrix(
        cells,
        trace,
        warmup=warmup,
        workers=args.workers,
        policy=SupervisorPolicy(
            workdir=args.resume,
            max_attempts=args.max_attempts,
            timeout=args.timeout,
        ),
    )
    print(supervision_table(
        campaign, title=_title(args, "Supervised first-failure sweep")
    ).text())
    finished = [result for result in campaign.results() if result is not None]
    if finished:
        print()
        print(replay_summary_table(finished, title="Finished cells").text())
    for cell in campaign.quarantined:
        print(f"  quarantined: {cell.label} after {cell.attempts} "
              f"attempt(s): {cell.error}")
    if args.report:
        _write_report(
            args.report, campaign_markdown_report(campaign, title=title)
        )
    print(f"campaign state kept in {args.resume}/ "
          "(re-run with the same --resume to continue)")
    return 0 if campaign.ok else 1


def _command_trace(args: argparse.Namespace) -> int:
    spec = _spec(args)
    trace, warmup = _mobile_pc_trace(spec, args, args.days)
    horizon = args.hours * 3600.0
    interval = args.heatmap_interval
    telemetry = Telemetry.to_directory(
        args.output,
        run_name=spec.label(),
        log_events=args.log_events,
        heatmap_bins=args.heatmap_bins,
        heatmap_interval=horizon / 16 if interval is None else interval,
    )
    result = run_fixed_horizon(
        spec, trace, horizon, warmup=warmup, telemetry=telemetry
    )
    print(replay_detail_table(result, title="Traced replay").text())
    _print_telemetry_summary(telemetry, len(result.heatmaps))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    spec = _spec(args)
    trace, warmup = _mobile_pc_trace(spec, args, args.days)
    if args.mode == "poisson":
        rate = args.rate
        if rate is None:
            rate = open_loop_rate(args.clients, args.think_time)
        speedup = None
        arrival_note = f"poisson, {rate:.1f} req/s"
    else:
        rate = None
        speedup = args.speedup
        arrival_note = f"trace-paced, speedup x{speedup:g}"
    max_time = args.hours * 3600.0 if args.hours is not None else None

    def soak(cell: ExperimentSpec, telemetry: Telemetry | None) -> ServiceResult:
        return run_service_soak(
            cell, trace,
            rate=rate, trace_speedup=speedup,
            max_requests=args.requests, max_time=max_time,
            queue_depth=args.depth, warmup=warmup, telemetry=telemetry,
        )

    telemetry = None
    if args.compare:
        results = _run_cells(
            args, _swl_cells(spec, args.thresholds, [args.k]), soak
        )
    else:
        telemetry = _make_telemetry(args, spec.label())
        results = [soak(spec, telemetry)]

    print(latency_table(
        results,
        title=f"Service soak ({arrival_note}, queue depth {args.depth})",
    ).text())
    for result in results:
        print()
        print(channel_latency_table(result).text())
    if args.report:
        _write_report(args.report, service_markdown_report(results))
    if telemetry is not None:
        _print_telemetry_summary(telemetry, len(results[0].replay.heatmaps))
    return 0


def _command_endure(args: argparse.Namespace) -> int:
    spec = _spec(args)
    channel_counts = sorted({1, args.channels})
    swl_variants: list[SWLConfig | None] = [None]
    if not args.no_swl:
        swl_variants.append(SWLConfig(threshold=args.threshold, k=args.k))
    specs = [
        replace(spec, swl=swl, channels=count)
        for count in channel_counts
        for swl in swl_variants
    ]
    cells = endurance_cells(list(args.shapes), specs)
    results = run_endurance_matrix(
        cells,
        horizon=args.horizon_days * DAY,
        rate=args.rate,
        theta=args.theta,
        period=args.period,
        seed=args.seed,
        workers=args.workers,
    )
    print(endurance_table(
        results,
        title=f"Endurance projections ({args.blocks} blocks/channel, "
              f"endurance {10_000 // args.scale}, "
              f"{args.horizon_days:g}-day horizon)",
    ).text())
    if args.report:
        _write_report(args.report, endurance_markdown_report(results))
    return 0


def _command_arena(args: argparse.Namespace) -> int:
    spec = _spec(args)
    result = run_arena(
        spec.geometry,
        spec.driver,
        workloads=args.workloads,
        levelers=args.levelers,
        horizon=args.horizon_days * DAY,
        rate=args.rate,
        seed=spec.seed,
        workers=args.workers,
        service_requests=args.service_requests,
        run_faults=not args.no_faults,
    )
    print(leaderboard_table(result).text())
    if args.report:
        _write_report(args.report, arena_report(result))
    if args.json:
        Path(args.json).write_text(json.dumps(result.as_dict(), indent=2) + "\n")
        print(f"arena JSON written to {args.json}")
    return 0 if all(entry.faults_ok for entry in result.leaderboard) else 1


def _command_faults(args: argparse.Namespace) -> int:
    if args.channels != 1:
        print("the faults campaign drives a single-channel stack; "
              "--channels must be 1", file=sys.stderr)
        return 2
    spec = _spec(args)
    plan = FaultPlan(
        seed=args.seed + 1,
        erase_fail_prob=args.erase_fail_prob,
        erase_weibull_shape=args.erase_weibull_shape,
        program_fail_prob=args.program_fail_prob,
        read_ber=args.read_ber,
    )
    result = run_fault_campaign(
        spec.geometry,
        spec.driver,
        spec.swl,
        plan=plan,
        seed=spec.seed,
        soak_writes=args.soak_writes,
        loss_points=args.loss_points,
    )
    print(f"Fault campaign report: {result.label} — "
          f"{'PASS' if result.ok else 'FAIL'}, "
          f"{len(result.violations)} invariant violation(s)")
    for table in fault_tables(result):
        print()
        print(table.text())
    for violation in result.violations:
        print(f"  violation: {violation}")
    if args.report:
        _write_report(args.report, fault_campaign_report(result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        configure_logging(args.log_level, channels=args.log_channel)
    handlers = {
        "generate-trace": _command_generate,
        "simulate": _command_simulate,
        "sweep": _command_sweep,
        "serve": _command_serve,
        "arena": _command_arena,
        "endure": _command_endure,
        "faults": _command_faults,
        "trace": _command_trace,
    }
    try:
        return handlers[args.command](args)
    except ValueError as error:
        # The library validates what a spec, workload, arrival model or
        # telemetry is built from and says what is wrong with it; for a
        # command line that is a usage error, not a traceback.
        parser.error(str(error))


if __name__ == "__main__":
    sys.exit(main())
