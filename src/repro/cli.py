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
    multi-channel — optionally with a multi-tenant replay whose
    per-tenant wear attribution rows must sum exactly to the device
    totals.
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
import re
import sys
from dataclasses import replace
from pathlib import Path

from repro.arena.report import arena_console_table, arena_report
from repro.arena.tournament import (
    DEFAULT_ROSTER,
    DEFAULT_WORKLOADS,
    run_arena,
)
from repro.core.config import SWLConfig
from repro.endurance import endurance_cells, run_endurance_matrix
from repro.fault.campaign import run_fault_campaign
from repro.fault.plan import FaultPlan
from repro.obs.telemetry import DEFAULT_HEATMAP_BINS, Telemetry
from repro.service.arrival import open_loop_rate
from repro.sim.experiment import (
    ExperimentSpec,
    logical_sectors_of,
    make_workload,
    run_fixed_horizon,
    run_service_soak,
    run_until_first_failure,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.sim.metrics import improvement_ratio
from repro.sim.reporting import (
    failure_cell,
    fault_campaign_report,
    save_endurance_report,
    save_report,
    save_service_report,
)
from repro.workloads import (
    DEFAULT_PHASE_PERIOD,
    DEFAULT_THETA,
    SHAPE_NAMES,
    TENANT_POLICIES,
    MultiTenantWorkload,
    ShapeParams,
    TenantSpec,
    make_shape,
    run_multi_tenant_replay,
)
from repro.sim.results import format_channel_latency, format_latency
from repro.traces.generator import DAY, WorkloadParams
from repro.traces.io import load_trace, save_trace
from repro.traces.model import Trace
from repro.traces.stats import summarize
from repro.util.diagnostics import configure_logging
from repro.util.tables import format_table


def _add_stack_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--driver", choices=("ftl", "nftl"), default="nftl",
                        help="translation layer (default: nftl)")
    parser.add_argument("--blocks", type=int, default=64,
                        help="simulated chip size in blocks (default: 64)")
    parser.add_argument("--scale", type=int, default=5,
                        help="endurance scale: cycles = 10000/scale (default: 5)")
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
    parser.add_argument("--seed", type=int, default=0, help="master seed")


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
                            "the same DIR resumes interrupted cells and "
                            "skips finished ones")
    sweep.add_argument("--workers", type=int, default=1,
                       help="supervised worker processes (default: 1; "
                            "needs --resume)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-attempt wall-clock timeout in seconds "
                            "for supervised cells (default: none)")
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
    endure.add_argument("--tenants", type=int, default=0,
                        help="also run a multi-tenant attribution replay "
                             "with this many tenants (default: 0 = skip)")
    endure.add_argument("--tenant-requests", type=int, default=20_000,
                        help="requests in the multi-tenant replay "
                             "(default: 20000)")
    endure.add_argument("--tenant-policy", choices=TENANT_POLICIES,
                        default="merge",
                        help="tenant interleaving policy (default: merge)")
    endure.add_argument("--report", metavar="PATH",
                        help="also write a markdown projection report to PATH")
    _add_stack_arguments(endure)
    _add_telemetry_arguments(endure)

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
    arena.add_argument("--driver", choices=("ftl", "nftl"), default="ftl",
                       help="translation layer (default: ftl)")
    arena.add_argument("--blocks", type=int, default=64,
                       help="simulated chip size in blocks (default: 64)")
    arena.add_argument("--scale", type=int, default=5,
                       help="endurance scale: cycles = 10000/scale "
                            "(default: 5)")
    arena.add_argument("--seed", type=int, default=0, help="master seed")
    arena.add_argument("--report", metavar="PATH",
                       help="also write the markdown leaderboard to PATH")
    arena.add_argument("--json", metavar="PATH",
                       help="also write the full arena result as JSON to "
                            "PATH")

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
    workload = make_workload(params)
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


def _slugify(label: str) -> str:
    """A label as a safe directory name (``NFTL+SWL(T=100,k=0)`` etc.)."""
    return re.sub(r"[^A-Za-z0-9._+=-]+", "_", label)


def _make_telemetry(
    args: argparse.Namespace, run_name: str, directory: str | None = None
) -> Telemetry | None:
    """Telemetry per the command's ``--telemetry``/``--trace-out`` flags.

    Heatmaps default to one per simulated day — first-failure horizons
    are open-ended, and the engine's decimation bounds the series.
    """
    if not (args.telemetry or args.trace_out):
        return None
    if directory is None:
        directory = args.trace_out
    if directory is not None:
        return Telemetry.to_directory(
            directory, run_name=run_name, heatmap_interval=DAY
        )
    return Telemetry(run_name=run_name, heatmap_interval=DAY)


def _print_telemetry_summary(
    telemetry: Telemetry, heatmaps: int
) -> None:
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
    print(format_table(["telemetry", "value"], rows, title="Telemetry"))
    if "chrome" in files:
        print(f"  open {files['chrome']} in Perfetto (https://ui.perfetto.dev)")


def _command_simulate(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if args.trace:
        trace = load_trace(args.trace)
        warmup = None
    else:
        params = workload_params_for(
            spec, duration=args.days * DAY, seed=args.seed + 1
        )
        workload = make_workload(params)
        trace = workload.requests()
        warmup = workload.prefill_requests()
    telemetry = _make_telemetry(args, spec.label())
    result = run_until_first_failure(
        spec, trace, warmup=warmup, telemetry=telemetry
    )
    distribution = result.erase_distribution
    rows: list[list[object]] = [
        ["configuration", result.label],
        ["first failure (simulated)", failure_cell(result)],
        ["total block erases", result.total_erases],
        ["live-page copies", result.live_page_copies],
        ["erase avg / dev / max",
         f"{distribution.average:.0f} / {distribution.deviation:.0f} / "
         f"{distribution.maximum}"],
    ]
    print(format_table(["metric", "value"], rows, title="Simulation report"))
    if result.shard_erase_distributions:
        shard_rows: list[list[object]] = [
            [f"shard {index}", f"{dist.average:.0f}",
             f"{dist.deviation:.0f}", dist.maximum, dist.total]
            for index, dist in enumerate(result.shard_erase_distributions)
        ]
        shard_rows.append(
            ["merged", f"{distribution.average:.0f}",
             f"{distribution.deviation:.0f}", distribution.maximum,
             distribution.total]
        )
        print()
        print(format_table(
            ["shard", "erase avg", "dev", "max", "total"],
            shard_rows,
            title=f"Per-shard erase distributions ({result.channels} channels)",
        ))
    if telemetry is not None:
        _print_telemetry_summary(telemetry, len(result.heatmaps))
    return 0


def _supervised_sweep(
    args: argparse.Namespace,
    specs: list[ExperimentSpec],
    trace: Trace,
    warmup: list,
) -> int:
    """``repro sweep --resume DIR``: the sweep as a supervised campaign."""
    from repro.ckpt.supervisor import SupervisorPolicy, run_supervised_matrix
    from repro.sim.reporting import campaign_markdown_report

    report = run_supervised_matrix(
        specs,
        trace,
        warmup=warmup,
        workers=args.workers,
        policy=SupervisorPolicy(
            workdir=args.resume,
            max_attempts=args.max_attempts,
            timeout=args.timeout,
        ),
    )
    baseline = report.cells[0].result
    rows: list[list[object]] = []
    for cell in report.cells:
        if cell.result is None:
            rows.append([cell.label, "quarantined", "-", cell.attempts])
            continue
        failure_days = round(cell.result.first_failure_time / DAY, 3)
        if cell.result is baseline or baseline is None:
            gain = "-"
        else:
            gain = f"{improvement_ratio(cell.result.first_failure_time, baseline.first_failure_time):+.1f}%"
        rows.append([cell.label, failure_days, gain, cell.attempts])
    print(format_table(
        ["Configuration", "First failure (days)", "vs baseline", "Attempts"],
        rows,
        title=f"Supervised first-failure sweep, {args.driver.upper()} "
              f"({args.blocks} blocks, endurance {10_000 // args.scale})",
    ))
    for cell in report.quarantined:
        print(f"  quarantined: {cell.label} after {cell.attempts} "
              f"attempt(s): {cell.error}")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(campaign_markdown_report(
                report,
                title=f"{args.driver.upper()} first-failure sweep",
            ))
        print(f"\nmarkdown report written to {args.report}")
    print(f"campaign state kept in {args.resume}/ "
          "(re-run with the same --resume to continue)")
    return 0 if report.ok else 1


def _command_sweep(args: argparse.Namespace) -> int:
    spec = _spec(args)
    params = workload_params_for(spec, duration=1.0 * DAY, seed=args.seed + 1)
    workload = make_workload(params)
    trace = workload.requests()
    warmup = workload.prefill_requests()
    if args.resume:
        specs = [replace(spec, swl=None)] + [
            replace(spec, swl=SWLConfig(threshold=threshold, k=k))
            for threshold in args.thresholds
            for k in args.ks
        ]
        return _supervised_sweep(args, specs, trace, warmup)
    def cell_telemetry(label: str) -> Telemetry | None:
        # One artifact directory per sweep cell; a bare --telemetry has
        # nowhere to put a whole sweep's traces, so it needs --trace-out.
        if not args.trace_out:
            return None
        return _make_telemetry(
            args, label, directory=str(Path(args.trace_out) / _slugify(label))
        )

    if args.telemetry and not args.trace_out:
        print("sweep telemetry needs --trace-out DIR (one artifact set "
              "per configuration); continuing without telemetry",
              file=sys.stderr)
    baseline_spec = replace(spec, swl=None)
    baseline_telemetry = cell_telemetry(baseline_spec.label())
    baseline = run_until_first_failure(
        baseline_spec, trace, warmup=warmup, telemetry=baseline_telemetry
    )
    if baseline_telemetry is not None:
        baseline_telemetry.finish()
    results = [baseline]
    rows: list[list[object]] = [
        [baseline.label, round(baseline.first_failure_time / DAY, 3), "-"]
    ]
    for threshold in args.thresholds:
        for k in args.ks:
            point = replace(spec, swl=SWLConfig(threshold=threshold, k=k))
            telemetry = cell_telemetry(point.label())
            result = run_until_first_failure(
                point, trace, warmup=warmup, telemetry=telemetry
            )
            if telemetry is not None:
                telemetry.finish()
            results.append(result)
            gain = improvement_ratio(
                result.first_failure_time, baseline.first_failure_time
            )
            rows.append(
                [result.label, round(result.first_failure_time / DAY, 3),
                 f"{gain:+.1f}%"]
            )
    print(format_table(
        ["Configuration", "First failure (days)", "vs baseline"],
        rows,
        title=f"First-failure sweep, {args.driver.upper()} "
              f"({args.blocks} blocks, endurance {10_000 // args.scale})",
    ))
    if args.report:
        save_report(
            args.report, results,
            title=f"{args.driver.upper()} first-failure sweep",
        )
        print(f"\nmarkdown report written to {args.report}")
    if args.trace_out:
        print(f"telemetry artifacts written under {args.trace_out}/")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    spec = _spec(args)
    params = workload_params_for(
        spec, duration=args.days * DAY, seed=args.seed + 1
    )
    workload = make_workload(params)
    trace = workload.requests()
    warmup = workload.prefill_requests()
    horizon = args.hours * 3600.0
    telemetry = Telemetry.to_directory(
        args.output,
        run_name=spec.label(),
        log_events=args.log_events,
        heatmap_bins=args.heatmap_bins,
        heatmap_interval=args.heatmap_interval or horizon / 16,
    )
    result = run_fixed_horizon(
        spec, trace, horizon, warmup=warmup, telemetry=telemetry
    )
    distribution = result.erase_distribution
    print(format_table(
        ["metric", "value"],
        [
            ["configuration", result.label],
            ["simulated hours", round(result.sim_time / 3600.0, 2)],
            ["requests replayed", result.requests],
            ["total block erases", result.total_erases],
            ["erase avg / dev / max",
             f"{distribution.average:.0f} / {distribution.deviation:.0f} / "
             f"{distribution.maximum}"],
        ],
        title="Traced replay",
    ))
    _print_telemetry_summary(telemetry, len(result.heatmaps))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    spec = _spec(args)
    params = workload_params_for(
        spec, duration=args.days * DAY, seed=args.seed + 1
    )
    workload = make_workload(params)
    trace = workload.requests()
    warmup = workload.prefill_requests()
    if args.mode == "poisson":
        rate = args.rate or open_loop_rate(args.clients, args.think_time)
        speedup = None
        arrival_note = f"poisson, {rate:.1f} req/s"
    else:
        rate = None
        speedup = args.speedup
        arrival_note = f"trace-paced, speedup x{speedup:g}"
    max_time = args.hours * 3600.0 if args.hours is not None else None

    def soak(cell: ExperimentSpec, telemetry: Telemetry | None):
        return run_service_soak(
            cell, trace,
            rate=rate, trace_speedup=speedup,
            max_requests=args.requests, max_time=max_time,
            queue_depth=args.depth, warmup=warmup, telemetry=telemetry,
        )

    telemetry = None
    if args.compare:
        if (args.telemetry or args.trace_out) and not args.trace_out:
            print("compare-mode telemetry needs --trace-out DIR (one "
                  "artifact set per configuration); continuing without "
                  "telemetry", file=sys.stderr)
        cells = [replace(spec, swl=None)] + [
            replace(spec, swl=SWLConfig(threshold=threshold, k=args.k))
            for threshold in args.thresholds
        ]
        results = []
        for cell in cells:
            cell_telemetry = None
            if args.trace_out:
                cell_telemetry = _make_telemetry(
                    args, cell.label(),
                    directory=str(Path(args.trace_out) / _slugify(cell.label())),
                )
            results.append(soak(cell, cell_telemetry))
            if cell_telemetry is not None:
                cell_telemetry.finish()
    else:
        telemetry = _make_telemetry(args, spec.label())
        results = [soak(spec, telemetry)]

    print(format_latency(
        results,
        title=f"Service soak ({arrival_note}, queue depth {args.depth})",
    ))
    for result in results:
        print()
        print(format_channel_latency(result))
    if args.report:
        save_service_report(args.report, results)
        print(f"\nmarkdown report written to {args.report}")
    if telemetry is not None:
        _print_telemetry_summary(telemetry, len(results[0].replay.heatmaps))
    elif args.trace_out:
        print(f"telemetry artifacts written under {args.trace_out}/")
    return 0


#: Shapes cycled over the tenants of ``repro endure --tenants N`` — the
#: first three give the canonical demo: a hotspot tenant, a
#: phase-shifting one, and a mixed read/write one.
_TENANT_SHAPE_CYCLE = ("hotspot", "phase", "mixed")


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
    results = [
        result
        for result in run_endurance_matrix(
            cells,
            horizon=args.horizon_days * DAY,
            rate=args.rate,
            theta=args.theta,
            period=args.period,
            seed=args.seed,
            workers=args.workers,
        )
        if result is not None
    ]
    # SWL-on cells report their TBW gain over the matching SWL-off cell
    # (same workload, same channel count).
    swl_off_tbw = {
        (r.cell.workload, r.cell.spec.channels): r.projection.tbw_bytes
        for r in results
        if r.cell.spec.swl is None
    }
    gb = 1e9
    rows: list[list[object]] = []
    for result in results:
        projection = result.projection
        key = (result.cell.workload, result.cell.spec.channels)
        if result.cell.spec.swl is None or key not in swl_off_tbw:
            gain = "—"
        else:
            gain = f"{(projection.tbw_bytes / swl_off_tbw[key] - 1) * 100:+.1f}%"
        rows.append([
            projection.label,
            f"{projection.waf:.3f}",
            projection.erase_maximum,
            f"{projection.wear_skew:.2f}",
            f"{projection.tbw_bytes / gb:.2f}",
            f"{projection.days_at_one_dwpd:.1f}",
            f"{projection.projected_first_failure_days:.1f}",
            gain,
        ])
    print(format_table(
        ["Cell", "WAF", "Erase max", "Skew", "TBW (GB)",
         "Days @1 DWPD", "First failure (d)", "SWL TBW gain"],
        rows,
        title=f"Endurance projections ({args.blocks} blocks/channel, "
              f"endurance {10_000 // args.scale}, "
              f"{args.horizon_days:g}-day horizon)",
    ))

    tenants = None
    tenant_replay = None
    status = 0
    if args.tenants > 0:
        tenant_spec = specs[-1]  # SWL-on (unless --no-swl) at --channels
        sectors = logical_sectors_of(tenant_spec)
        tenant_specs = [
            TenantSpec(
                name=f"tenant{index}-{_TENANT_SHAPE_CYCLE[index % 3]}",
                shape=make_shape(
                    _TENANT_SHAPE_CYCLE[index % 3],
                    ShapeParams(
                        total_sectors=sectors,
                        rate=args.rate,
                        seed=args.seed + index,
                    ),
                    theta=args.theta,
                    period=args.period,
                ),
                weight=1.0 + 0.5 * index,
            )
            for index in range(args.tenants)
        ]
        workload = MultiTenantWorkload(
            tenant_specs, sectors, policy=args.tenant_policy, seed=args.seed
        )
        telemetry = _make_telemetry(
            args, f"{tenant_spec.label()}-tenants{args.tenants}"
        )
        attribution = run_multi_tenant_replay(
            tenant_spec,
            workload,
            max_requests=args.tenant_requests,
            telemetry=telemetry,
        )
        tenants = attribution.tenants
        tenant_replay = attribution.replay
        tenant_rows: list[list[object]] = [
            [t.name, t.requests, t.pages_written, t.erases,
             f"{t.busy_time:.3f}"]
            for t in tenants
        ]
        tenant_rows.append([
            "device", tenant_replay.requests, tenant_replay.pages_written,
            tenant_replay.total_erases,
            f"{tenant_replay.device_busy_time:.3f}",
        ])
        print()
        print(format_table(
            ["Tenant", "Requests", "Pages written", "Erases", "Busy (s)"],
            tenant_rows,
            title=f"Per-tenant attribution ({tenant_replay.label}, "
                  f"policy {args.tenant_policy})",
        ))
        errors = attribution.conservation_errors()
        if errors:
            status = 1
            for error in errors:
                print(f"  conservation violation: {error}", file=sys.stderr)
        else:
            print("  conservation: per-tenant sums equal device totals")
        if telemetry is not None:
            _print_telemetry_summary(telemetry, len(tenant_replay.heatmaps))
    elif args.telemetry or args.trace_out:
        print("endure telemetry attaches to the multi-tenant replay; "
              "pass --tenants N to enable it", file=sys.stderr)

    if args.report:
        save_endurance_report(
            args.report, results, tenants=tenants, tenant_replay=tenant_replay
        )
        print(f"\nmarkdown report written to {args.report}")
    return status


def _command_arena(args: argparse.Namespace) -> int:
    geometry = scaled_mlc2_geometry(args.blocks, scale=args.scale)
    result = run_arena(
        geometry,
        args.driver,
        workloads=args.workloads,
        levelers=args.levelers,
        horizon=args.horizon_days * DAY,
        rate=args.rate,
        seed=args.seed,
        workers=args.workers,
        service_requests=args.service_requests,
        run_faults=not args.no_faults,
    )
    print(arena_console_table(result))
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(arena_report(result))
        print(f"\nmarkdown leaderboard written to {args.report}")
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"arena JSON written to {args.json}")
    return 0 if all(entry.faults_ok for entry in result.leaderboard) else 1


def _command_faults(args: argparse.Namespace) -> int:
    if args.channels != 1:
        print("the faults campaign drives a single-channel stack; "
              "--channels must be 1", file=sys.stderr)
        return 2
    geometry = scaled_mlc2_geometry(args.blocks, scale=args.scale)
    swl = None if args.no_swl else SWLConfig(threshold=args.threshold, k=args.k)
    plan = FaultPlan(
        seed=args.seed + 1,
        erase_fail_prob=args.erase_fail_prob,
        erase_weibull_shape=args.erase_weibull_shape,
        program_fail_prob=args.program_fail_prob,
        read_ber=args.read_ber,
    )
    result = run_fault_campaign(
        geometry,
        args.driver,
        swl,
        plan=plan,
        seed=args.seed,
        soak_writes=args.soak_writes,
        loss_points=args.loss_points,
    )
    crash = result.crash_report
    recovery = result.recovery_summary()
    print(format_table(
        ["metric", "value"],
        [
            ["configuration", result.label],
            ["verdict", "PASS" if result.ok else "FAIL"],
            ["soak writes acknowledged", result.soak_writes],
            ["blocks retired", result.retired_blocks],
            ["erase faults injected",
             result.injector_stats.get("erase_faults", 0)],
            ["program faults injected",
             result.injector_stats.get("program_faults", 0)],
            ["read errors corrected",
             result.injector_stats.get("read_errors_corrected", 0)],
            ["unrecovered faults", result.unrecovered_faults],
            ["recovery copies", recovery.recovery_copies],
            ["recovery erase overhead",
             f"{recovery.recovery_erase_overhead:.2f}%"],
            ["loss points swept / fired",
             f"{len(crash.verdicts)} / {crash.crashes}"],
            ["invariant violations", len(result.violations)],
        ],
        title="Fault campaign report",
    ))
    for violation in result.violations:
        print(f"  violation: {violation}")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(fault_campaign_report(result))
        print(f"\nmarkdown report written to {args.report}")
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
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
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
