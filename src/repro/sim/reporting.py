"""Report tables and markdown documents from simulation results.

Every table a ``repro`` command shows is built by exactly one function
here (the policy arena's live in :mod:`repro.arena.report`) as a
:class:`~repro.util.tables.Table`; the command prints its ``.text()``
and the ``--report`` document renders the same table with
``.markdown()``, so the console and the file cannot disagree.  The
``*_report`` functions wrap those tables in the prose of a
self-contained markdown document — suitable for a lab notebook or a
pull request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.analysis.figures import sparkline
from repro.sim.engine import SimResult
from repro.sim.metrics import improvement_ratio
from repro.traces.generator import DAY
from repro.util.tables import Table, markdown_document

if TYPE_CHECKING:
    from repro.ckpt.supervisor import CampaignReport
    from repro.endurance.matrix import EnduranceCellResult
    from repro.fault.campaign import FaultCampaignResult
    from repro.service.latency import LatencySummary
    from repro.service.results import ServiceResult


def _gain(value: float | None, base: float | None) -> str:
    """Signed percent change of ``value`` over ``base``, when both exist."""
    if value is None or base is None or base <= 0:
        return "n/a"
    return f"{improvement_ratio(value, base):+.1f}%"


def _ms(seconds: float) -> str:
    """A latency in milliseconds with sub-µs noise trimmed."""
    return f"{seconds * 1e3:.3f}"


def _stat_rows(prefix: str, stats: Mapping[str, object]) -> list[list[object]]:
    return [
        [f"{prefix} {key.replace('_', ' ')}", value]
        for key, value in sorted(stats.items())
        if key != "findex_history"
    ]


def failure_cell(result: SimResult) -> str:
    """First-failure time in days, or the time survived without one."""
    if result.first_failure_time is None:
        return f"> {result.sim_time / DAY:.2f} d (no failure)"
    return f"{result.first_failure_time / DAY:.2f} d"


# ----------------------------------------------------------------------
# Replay results (simulate / sweep / trace)
# ----------------------------------------------------------------------
def replay_summary_table(
    results: Sequence[SimResult],
    *,
    baseline_label: str | None = None,
    title: str | None = None,
) -> Table:
    """One row per replay: first failure, gain over the baseline, wear.

    ``baseline_label`` names the baseline row; it defaults to the first.
    """
    if not results:
        raise ValueError("no results to report")
    labelled = [r for r in results if r.label == baseline_label]
    if baseline_label is not None and not labelled:
        raise ValueError(f"no result labelled {baseline_label!r}")
    baseline = labelled[0] if labelled else results[0]
    rows = []
    for result in results:
        distribution = result.erase_distribution
        rows.append([
            result.label,
            failure_cell(result),
            "—" if result is baseline else _gain(
                result.first_failure_time, baseline.first_failure_time
            ),
            f"{distribution.average:.0f}",
            f"{distribution.deviation:.0f}",
            distribution.maximum,
            result.total_erases,
            result.live_page_copies,
        ])
    return Table(
        ["Configuration", "First failure", "vs baseline",
         "Avg erases", "Dev", "Max", "Total erases", "Live copies"],
        rows,
        title,
    )


def replay_detail_table(result: SimResult, *, title: str | None = None) -> Table:
    """Everything one replay measured, one metric per row."""
    distribution = result.erase_distribution
    rows: list[list[object]] = [
        ["configuration", result.label],
        ["first failure (simulated)", failure_cell(result)],
        ["requests replayed", result.requests],
        ["pages written", result.pages_written],
        ["simulated time", f"{result.sim_time / DAY:.2f} days"],
        ["total block erases", result.total_erases],
        ["erase avg / dev / max",
         f"{distribution.average:.0f} / {distribution.deviation:.0f} / "
         f"{distribution.maximum}"],
        ["live-page copies", result.live_page_copies],
        ["garbage collections", result.gc_runs],
        ["device busy time", f"{result.device_busy_time:.1f} s"],
    ]
    if result.channels > 1:
        rows.append(["channels", result.channels])
    rows += _stat_rows("SWL", result.swl_stats)
    if result.power_lost:
        rows.append(["power lost", "yes (replay ended early)"])
    rows += _stat_rows("fault", result.fault_stats)
    return Table(["Metric", "Value"], rows, title)


def shard_table(result: SimResult) -> Table:
    """Per-shard erase distributions of an array run, then the merged one."""
    named = [
        (f"shard {index}", dist)
        for index, dist in enumerate(result.shard_erase_distributions)
    ] + [("merged", result.erase_distribution)]
    return Table(
        ["Shard", "Avg", "Dev", "Max", "Min", "Total"],
        [
            [name, f"{dist.average:.0f}", f"{dist.deviation:.0f}",
             dist.maximum, dist.minimum, dist.total]
            for name, dist in named
        ],
        f"Per-shard erase distributions ({result.channels} channels)",
    )


def _replay_blocks(
    results: Sequence[SimResult], baseline_label: str | None
) -> list[str]:
    blocks = [
        "## Summary",
        replay_summary_table(results, baseline_label=baseline_label).markdown(),
    ]
    for result in results:
        blocks += [f"## {result.label}", replay_detail_table(result).markdown()]
        if result.shard_erase_distributions:
            blocks += [
                "Per-shard erase distributions:",
                shard_table(result).markdown(),
            ]
        if result.timeline:
            deviations = [sample.deviation for sample in result.timeline]
            maxima = [sample.maximum for sample in result.timeline]
            blocks += [
                "Wear evolution (first to last sample):",
                f"- deviation `{sparkline(deviations)}` "
                f"({deviations[0]:.0f} → {deviations[-1]:.0f})\n"
                f"- max erase `{sparkline([float(m) for m in maxima])}` "
                f"({maxima[0]} → {maxima[-1]})",
            ]
    return blocks


def markdown_report(
    results: Sequence[SimResult],
    *,
    title: str = "Wear-leveling simulation report",
    baseline_label: str | None = None,
) -> str:
    """Render ``results`` as a markdown document.

    Summary table, per-run details, wear-evolution sparklines.
    ``baseline_label`` names the row the improvement column is computed
    against; defaults to the first result.
    """
    return markdown_document(title, _replay_blocks(results, baseline_label))


# ----------------------------------------------------------------------
# Supervised campaigns (sweep --resume)
# ----------------------------------------------------------------------
def supervision_table(
    campaign: "CampaignReport", *, title: str | None = None
) -> Table:
    """Status and attempt count per cell."""
    return Table(
        ["Configuration", "Status", "Attempts"],
        [
            [cell.label, "ok" if cell.ok else "**quarantined**", cell.attempts]
            for cell in campaign.cells
        ],
        title,
    )


def campaign_markdown_report(
    campaign: "CampaignReport",
    *,
    title: str = "Wear-leveling simulation report",
) -> str:
    """Render a supervised campaign, degrading gracefully on quarantine.

    The document is :func:`markdown_report` over the cells that finished,
    prefixed with a supervision table and a quarantine section naming
    every cell that exhausted its retries — instead of the whole report
    failing because one cell did.
    """
    finished = [cell.result for cell in campaign.cells if cell.result is not None]
    blocks = [
        "## Supervision",
        f"{len(finished)}/{len(campaign.cells)} cells finished"
        + ("" if campaign.ok else f"; {len(campaign.quarantined)} quarantined"),
        supervision_table(campaign).markdown(),
    ]
    if campaign.quarantined:
        blocks += [
            "## Quarantined cells",
            "\n".join(
                f"- `{cell.label}` after {cell.attempts} attempt(s): "
                f"{cell.error or 'unknown failure'}"
                for cell in campaign.quarantined
            ),
        ]
    if finished:
        blocks += _replay_blocks(finished, None)
    else:
        blocks.append("No cell produced a result.")
    return markdown_document(title, blocks)


# ----------------------------------------------------------------------
# Service soaks (serve)
# ----------------------------------------------------------------------
def _percentiles(latency: "LatencySummary") -> list[str]:
    return [_ms(latency.p50), _ms(latency.p95), _ms(latency.p99),
            _ms(latency.maximum)]


def latency_table(
    results: "Sequence[ServiceResult]", *, title: str | None = None
) -> Table:
    """Latency percentiles in milliseconds, one row per service run.

    ``Stalls`` counts arrivals that hit per-channel backpressure.  With
    an SWL-off baseline first, the p99 delta column reads directly as
    the tail interference the wear leveler adds.
    """
    if not results:
        raise ValueError("no results to report")
    baseline = results[0]
    return Table(
        ["Configuration", "Requests", "p50 (ms)", "p95 (ms)", "p99 (ms)",
         "Max (ms)", "p99 vs baseline", "Stalls"],
        [
            [result.label,
             result.requests,
             *_percentiles(result.latency),
             "—" if result is baseline else _gain(
                 result.latency.p99, baseline.latency.p99
             ),
             result.stalls]
            for result in results
        ],
        title,
    )


def service_detail_table(result: "ServiceResult") -> Table:
    """Throughput and queueing of one service run."""
    return Table(
        ["Metric", "Value"],
        [
            ["requests served", result.requests],
            ["queue depth bound", result.queue_depth],
            ["completion horizon", f"{result.completion_time:.2f} s"],
            ["service throughput", f"{result.service_throughput:.0f} req/s"],
            ["mean latency", f"{_ms(result.latency.mean)} ms"],
            ["backpressure stalls", result.stalls],
        ],
    )


def channel_latency_table(result: "ServiceResult") -> Table:
    """Per-channel latency and queue rows for one service run."""
    return Table(
        ["Channel", "Served", "p50 (ms)", "p95 (ms)", "p99 (ms)",
         "Max (ms)", "Peak depth", "Stalls", "Stall time (s)"],
        [
            [f"channel {stats.channel}",
             stats.served,
             *_percentiles(stats.latency),
             stats.peak_depth,
             stats.stalls,
             f"{stats.stall_time:.2f}"]
            for stats in result.channel_stats
        ],
        f"Per-channel latency — {result.label}",
    )


def service_markdown_report(results: "Sequence[ServiceResult]") -> str:
    """Render open-loop service runs as a markdown document.

    The summary table compares request-latency percentiles across
    configurations — with an SWL-off baseline first this is the paper's
    tail interference story told in milliseconds — followed by
    per-channel breakdowns and the wear view of each run.
    """
    blocks = [
        "Open-loop service runs: identical request streams and arrival\n"
        "times per configuration, so latency differences are cleaning and\n"
        "wear-leveling interference (see DESIGN.md §5g).",
        "## Latency summary",
        latency_table(results).markdown(),
    ]
    for result in results:
        blocks += [
            f"## {result.label}",
            service_detail_table(result).markdown(),
            "Per-channel latency:",
            channel_latency_table(result).markdown(),
            "Wear view:",
            replay_detail_table(result.replay).markdown(),
        ]
    return markdown_document("Service-mode latency report", blocks)


# ----------------------------------------------------------------------
# Fault campaigns (faults)
# ----------------------------------------------------------------------
def fault_tables(campaign: "FaultCampaignResult") -> tuple[Table, Table]:
    """The soak phase (injected faults vs recovery work) and the power-loss sweep."""
    crash = campaign.crash_report
    soak_rows: list[list[object]] = [
        ["host writes acknowledged", campaign.soak_writes],
        ["blocks retired", campaign.retired_blocks],
        ["unrecovered faults", campaign.unrecovered_faults],
        ["recovery erase overhead",
         f"{campaign.recovery_summary().recovery_erase_overhead:.2f}%"],
        ["data-integrity violations", len(campaign.soak_violations)],
    ]
    soak_rows += _stat_rows("injected", campaign.injector_stats)
    soak_rows += _stat_rows("driver", campaign.recovery_stats)
    crash_rows: list[list[object]] = [
        ["loss points swept", len(crash.verdicts)],
        ["losses that fired", crash.crashes],
        ["BET restores", sum(1 for v in crash.verdicts if v.bet_restored)],
        ["mappings recovered", sum(v.mappings_recovered for v in crash.verdicts)],
        ["invariant violations", len(crash.violations)],
    ]
    headers = ["Metric", "Value"]
    return (
        Table(headers, soak_rows, "Soak phase (transient faults under load)"),
        Table(headers, crash_rows, "Power-loss sweep (crash consistency)"),
    )


def fault_campaign_report(campaign: "FaultCampaignResult") -> str:
    """Render a :class:`~repro.fault.campaign.FaultCampaignResult` as markdown.

    One document per campaign: the pass/fail gate up front, then the soak
    phase and the power-loss sweep.
    """
    verdict = "**PASS** — zero invariant violations" if campaign.ok else (
        f"**FAIL** — {len(campaign.violations)} violation(s)"
    )
    blocks = [f"Configuration: `{campaign.label}` — {verdict}"]
    for table in fault_tables(campaign):
        blocks += [f"## {table.title}", table.markdown()]
    if campaign.violations:
        blocks += [
            "## Violations",
            "\n".join(f"- {violation}" for violation in campaign.violations),
        ]
    return markdown_document("Fault-injection campaign report", blocks)


# ----------------------------------------------------------------------
# Endurance projections (endure)
# ----------------------------------------------------------------------
def endurance_table(
    results: "Sequence[EnduranceCellResult]", *, title: str | None = None
) -> Table:
    """One row per ``workload × policy`` cell.

    Measured WAF and wear skew, projected TBW, the days the device lasts
    at a sustained 1 DWPD, the extrapolated first-failure horizon, and —
    for an SWL-on cell — its TBW gain over the SWL-off cell of the same
    workload and channel count.
    """
    if not results:
        raise ValueError("no results to report")
    swl_off_tbw = {
        (r.cell.workload, r.cell.spec.channels): r.projection.tbw_bytes
        for r in results
        if r.cell.spec.swl is None
    }
    rows = []
    for result in results:
        projection = result.projection
        key = (result.cell.workload, result.cell.spec.channels)
        rows.append([
            projection.label,
            f"{projection.waf:.3f}",
            f"{projection.erase_average:.1f}",
            projection.erase_maximum,
            f"{projection.wear_skew:.2f}",
            f"{projection.tbw_bytes / 1e9:.2f}",
            f"{projection.days_at_one_dwpd:.1f}",
            f"{projection.projected_first_failure_days:.1f}",
            "—" if result.cell.spec.swl is None or key not in swl_off_tbw
            else _gain(projection.tbw_bytes, swl_off_tbw[key]),
        ])
    return Table(
        ["Cell", "WAF", "Erase avg", "Erase max", "Wear skew", "TBW (GB)",
         "Days @ 1 DWPD", "First failure (days)", "SWL TBW gain"],
        rows,
        title,
    )


def endurance_markdown_report(
    results: "Sequence[EnduranceCellResult]",
    *,
    title: str = "Endurance projection report",
) -> str:
    """Render endurance-matrix cells as a markdown document."""
    blocks = [
        "Projections extrapolate each cell's measured erase rates to the "
        "geometry's P/E-cycle budget (WAF-aware chokepoint: "
        "`repro.endurance.projection.first_failure_horizon`).  TBW is "
        "host bytes writable before the hottest block exhausts its "
        "budget at the measured skew.",
        endurance_table(results).markdown(),
    ]
    return markdown_document(title, blocks)
