"""Markdown report generation from simulation results.

Turns a set of :class:`~repro.sim.engine.SimResult` objects into a
self-contained markdown document — summary table, per-run details,
wear-evolution sparklines — suitable for dropping into a lab notebook or
a pull request.  Used by ``python -m repro sweep --report``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.analysis.figures import sparkline
from repro.sim.engine import SimResult
from repro.sim.metrics import improvement_ratio

if TYPE_CHECKING:
    from repro.ckpt.supervisor import CampaignReport
    from repro.endurance.matrix import EnduranceCellResult
    from repro.fault.campaign import FaultCampaignResult
    from repro.service.results import ServiceResult
    from repro.sim.metrics import TenantUsage


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)


def failure_cell(result: SimResult) -> str:
    """First-failure time in days, or the time survived without one."""
    if result.first_failure_time is None:
        return f"> {result.sim_time / 86_400:.2f} d (no failure)"
    return f"{result.first_failure_time / 86_400:.2f} d"


def markdown_report(
    results: Sequence[SimResult],
    *,
    title: str = "Wear-leveling simulation report",
    baseline_label: str | None = None,
) -> str:
    """Render ``results`` as a markdown document.

    ``baseline_label`` names the row the improvement column is computed
    against; defaults to the first result.
    """
    if not results:
        raise ValueError("no results to report")
    baseline = results[0]
    if baseline_label is not None:
        matches = [r for r in results if r.label == baseline_label]
        if not matches:
            raise ValueError(f"no result labelled {baseline_label!r}")
        baseline = matches[0]

    def gain_cell(result: SimResult) -> str:
        if result is baseline:
            return "—"
        if result.first_failure_time is None or baseline.first_failure_time is None:
            return "n/a"
        return f"{improvement_ratio(result.first_failure_time, baseline.first_failure_time):+.1f}%"

    summary_rows = []
    for result in results:
        distribution = result.erase_distribution
        summary_rows.append(
            [result.label,
             failure_cell(result),
             gain_cell(result),
             f"{distribution.average:.0f}",
             f"{distribution.deviation:.0f}",
             distribution.maximum,
             result.total_erases,
             result.live_page_copies]
        )

    sections = [
        f"# {title}",
        "",
        "## Summary",
        "",
        _markdown_table(
            ["Configuration", "First failure", "vs baseline",
             "Avg erases", "Dev", "Max", "Total erases", "Live copies"],
            summary_rows,
        ),
    ]

    for result in results:
        sections += ["", f"## {result.label}", ""]
        detail_rows = [
            ["requests replayed", result.requests],
            ["pages written", result.pages_written],
            ["simulated time", f"{result.sim_time / 86_400:.2f} days"],
            ["garbage collections", result.gc_runs],
            ["device busy time", f"{result.device_busy_time:.1f} s"],
        ]
        if result.channels > 1:
            detail_rows.append(["channels", result.channels])
        for key, value in sorted(result.swl_stats.items()):
            if key == "findex_history":
                continue
            detail_rows.append([f"SWL {key.replace('_', ' ')}", value])
        if result.power_lost:
            detail_rows.append(["power lost", "yes (replay ended early)"])
        for key, value in sorted(result.fault_stats.items()):
            detail_rows.append([f"fault {key.replace('_', ' ')}", value])
        sections.append(_markdown_table(["Metric", "Value"], detail_rows))
        if result.shard_erase_distributions:
            shard_rows: list[list[object]] = [
                [f"shard {index}",
                 f"{dist.average:.0f}",
                 f"{dist.deviation:.0f}",
                 dist.maximum,
                 dist.minimum,
                 dist.total]
                for index, dist in enumerate(result.shard_erase_distributions)
            ]
            merged = result.erase_distribution
            shard_rows.append(
                ["merged",
                 f"{merged.average:.0f}",
                 f"{merged.deviation:.0f}",
                 merged.maximum,
                 merged.minimum,
                 merged.total]
            )
            sections += [
                "",
                "Per-shard erase distributions:",
                "",
                _markdown_table(
                    ["Shard", "Avg", "Dev", "Max", "Min", "Total"],
                    shard_rows,
                ),
            ]
        if result.timeline:
            deviations = [sample.deviation for sample in result.timeline]
            maxima = [sample.maximum for sample in result.timeline]
            sections += [
                "",
                "Wear evolution (first to last sample):",
                "",
                f"- deviation `{sparkline(deviations)}` "
                f"({deviations[0]:.0f} → {deviations[-1]:.0f})",
                f"- max erase `{sparkline([float(m) for m in maxima])}` "
                f"({maxima[0]} → {maxima[-1]})",
            ]
    sections.append("")
    return "\n".join(sections)


def save_report(
    path: str,
    results: Sequence[SimResult],
    **kwargs: object,
) -> None:
    """Write :func:`markdown_report` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(markdown_report(results, **kwargs))  # type: ignore[arg-type]


def service_markdown_report(
    results: "Sequence[ServiceResult]",
    *,
    title: str = "Service-mode latency report",
    baseline_label: str | None = None,
) -> str:
    """Render open-loop service runs as a markdown document.

    The summary table compares request-latency percentiles across
    configurations — with an SWL-off baseline this is the paper's tail
    interference story told in milliseconds — followed by per-channel
    breakdowns and the wear view of each run.  ``baseline_label`` names
    the row the p99 delta column is computed against; defaults to the
    first result.
    """
    if not results:
        raise ValueError("no results to report")
    baseline = results[0]
    if baseline_label is not None:
        matches = [r for r in results if r.label == baseline_label]
        if not matches:
            raise ValueError(f"no result labelled {baseline_label!r}")
        baseline = matches[0]

    def ms(seconds: float) -> str:
        return f"{seconds * 1e3:.3f}"

    def p99_delta(result: "ServiceResult") -> str:
        if result is baseline:
            return "—"
        if baseline.latency.p99 <= 0:
            return "n/a"
        ratio = (result.latency.p99 / baseline.latency.p99 - 1.0) * 100.0
        return f"{ratio:+.1f}%"

    summary_rows = [
        [result.label,
         result.requests,
         ms(result.latency.p50),
         ms(result.latency.p95),
         ms(result.latency.p99),
         p99_delta(result),
         ms(result.latency.maximum),
         result.stalls]
        for result in results
    ]
    sections = [
        f"# {title}",
        "",
        "Open-loop service runs: identical request streams and arrival",
        "times per configuration, so latency differences are cleaning and",
        "wear-leveling interference (see DESIGN.md §5g).",
        "",
        "## Latency summary",
        "",
        _markdown_table(
            ["Configuration", "Requests", "p50 (ms)", "p95 (ms)",
             "p99 (ms)", "p99 vs baseline", "Max (ms)", "Stalls"],
            summary_rows,
        ),
    ]
    for result in results:
        sections += ["", f"## {result.label}", ""]
        detail_rows: list[list[object]] = [
            ["requests served", result.requests],
            ["queue depth bound", result.queue_depth],
            ["completion horizon", f"{result.completion_time:.2f} s"],
            ["service throughput",
             f"{result.service_throughput:.0f} req/s"],
            ["mean latency", f"{ms(result.latency.mean)} ms"],
            ["backpressure stalls", result.stalls],
            ["garbage collections", result.replay.gc_runs],
            ["total erases", result.replay.total_erases],
        ]
        for key, value in sorted(result.replay.swl_stats.items()):
            if key == "findex_history":
                continue
            detail_rows.append([f"SWL {key.replace('_', ' ')}", value])
        if result.replay.power_lost:
            detail_rows.append(["power lost", "yes (run ended early)"])
        sections.append(_markdown_table(["Metric", "Value"], detail_rows))
        sections += [
            "",
            "Per-channel latency:",
            "",
            _markdown_table(
                ["Channel", "Served", "p50 (ms)", "p95 (ms)", "p99 (ms)",
                 "Max (ms)", "Peak depth", "Stalls", "Stall time (s)"],
                [
                    [f"channel {stats.channel}",
                     stats.served,
                     ms(stats.latency.p50),
                     ms(stats.latency.p95),
                     ms(stats.latency.p99),
                     ms(stats.latency.maximum),
                     stats.peak_depth,
                     stats.stalls,
                     f"{stats.stall_time:.2f}"]
                    for stats in result.channel_stats
                ],
            ),
        ]
    sections.append("")
    return "\n".join(sections)


def save_service_report(
    path: str,
    results: "Sequence[ServiceResult]",
    **kwargs: object,
) -> None:
    """Write :func:`service_markdown_report` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(
            service_markdown_report(results, **kwargs)  # type: ignore[arg-type]
        )


def campaign_markdown_report(
    campaign: "CampaignReport",
    *,
    title: str = "Wear-leveling simulation report",
    baseline_label: str | None = None,
) -> str:
    """Render a supervised campaign, degrading gracefully on quarantine.

    The document is :func:`markdown_report` over the cells that finished,
    prefixed with a supervision table (status, attempt counts, the seeds
    each attempt ran with) and a quarantine section naming every cell
    that exhausted its retries — instead of the whole report failing
    because one cell did.
    """
    finished = [cell for cell in campaign.cells if cell.result is not None]
    supervision_rows = [
        [
            cell.label,
            "ok" if cell.ok else "**quarantined**",
            cell.attempts,
            ", ".join(str(seed) for seed in cell.seeds) or "—",
        ]
        for cell in campaign.cells
    ]
    sections = [
        f"# {title}",
        "",
        "## Supervision",
        "",
        f"{len(finished)}/{len(campaign.cells)} cells finished"
        + ("" if campaign.ok
           else f"; {len(campaign.quarantined)} quarantined"),
        "",
        _markdown_table(
            ["Configuration", "Status", "Attempts", "Seeds"],
            supervision_rows,
        ),
    ]
    if campaign.quarantined:
        sections += ["", "## Quarantined cells", ""]
        sections += [
            f"- `{cell.label}` after {cell.attempts} attempt(s): "
            f"{cell.error or 'unknown failure'}"
            for cell in campaign.quarantined
        ]
    if finished:
        baseline = baseline_label
        if baseline is not None and all(
            cell.label != baseline for cell in finished
        ):
            baseline = None  # the baseline itself was quarantined
        body = markdown_report(
            [cell.result for cell in finished],  # type: ignore[misc]
            title=title,
            baseline_label=baseline,
        )
        # Drop the body's duplicate H1; keep everything from "## Summary".
        sections += ["", body.split("\n", 2)[2]]
    else:
        sections += ["", "No cell produced a result.", ""]
    return "\n".join(sections)


def fault_campaign_report(
    campaign: "FaultCampaignResult",
    *,
    title: str = "Fault-injection campaign report",
) -> str:
    """Render a :class:`~repro.fault.campaign.FaultCampaignResult` as markdown.

    One document per campaign: the pass/fail gate up front, then the soak
    phase (injected faults vs recovery work) and the power-loss sweep.
    """
    verdict = "**PASS** — zero invariant violations" if campaign.ok else (
        f"**FAIL** — {len(campaign.violations)} violation(s)"
    )
    crash = campaign.crash_report
    sections = [
        f"# {title}",
        "",
        f"Configuration: `{campaign.label}` — {verdict}",
        "",
        "## Soak phase (transient faults under load)",
        "",
        _markdown_table(
            ["Metric", "Value"],
            [
                ["host writes acknowledged", campaign.soak_writes],
                ["blocks retired", campaign.retired_blocks],
                ["unrecovered faults", campaign.unrecovered_faults],
                ["recovery erase overhead",
                 f"{campaign.recovery_summary().recovery_erase_overhead:.2f}%"],
                ["data-integrity violations", len(campaign.soak_violations)],
            ]
            + [
                [f"injected {key.replace('_', ' ')}", value]
                for key, value in sorted(campaign.injector_stats.items())
            ]
            + [
                [f"driver {key.replace('_', ' ')}", value]
                for key, value in sorted(campaign.recovery_stats.items())
            ],
        ),
        "",
        "## Power-loss sweep (crash consistency)",
        "",
        _markdown_table(
            ["Metric", "Value"],
            [
                ["loss points swept", len(crash.verdicts)],
                ["losses that fired", crash.crashes],
                ["BET restores", sum(1 for v in crash.verdicts if v.bet_restored)],
                ["mappings recovered", sum(v.mappings_recovered for v in crash.verdicts)],
                ["invariant violations", len(crash.violations)],
            ],
        ),
    ]
    if campaign.violations:
        sections += ["", "## Violations", ""]
        sections += [f"- {violation}" for violation in campaign.violations]
    sections.append("")
    return "\n".join(sections)


def tenant_attribution_table(
    tenants: "Sequence[TenantUsage]", replay: SimResult
) -> str:
    """Per-tenant usage rows plus the device-total row they must sum to.

    The final row restates the device's own counters; the conservation
    invariant (DESIGN.md §5h) says each column above it sums exactly to
    that row.
    """
    rows: list[list[object]] = [
        [
            tenant.name,
            tenant.requests,
            tenant.pages_written,
            tenant.pages_read,
            tenant.erases,
            f"{tenant.busy_time:.3f}",
        ]
        for tenant in tenants
    ]
    rows.append(
        [
            "**device**",
            replay.requests,
            replay.pages_written,
            replay.pages_read,
            replay.total_erases,
            f"{replay.device_busy_time:.3f}",
        ]
    )
    return _markdown_table(
        ["Tenant", "Requests", "Pages written", "Pages read",
         "Erases", "Busy time (s)"],
        rows,
    )


def endurance_markdown_report(
    results: "Sequence[EnduranceCellResult]",
    *,
    title: str = "Endurance projection report",
    tenants: "Sequence[TenantUsage] | None" = None,
    tenant_replay: SimResult | None = None,
) -> str:
    """Render endurance-matrix cells as a markdown document.

    One row per ``workload × policy`` cell: measured WAF and wear skew,
    projected TBW, the days the device lasts at a sustained 1 DWPD, and
    the extrapolated first-failure horizon.  ``tenants`` (with the
    ``tenant_replay`` that produced them) appends a per-tenant wear
    attribution section.
    """
    if not results:
        raise ValueError("no results to report")
    gb = 1e9
    rows: list[list[object]] = [
        [
            projection.label,
            f"{projection.waf:.3f}",
            f"{projection.erase_average:.1f}",
            projection.erase_maximum,
            f"{projection.wear_skew:.2f}",
            f"{projection.tbw_bytes / gb:.2f}",
            f"{projection.days_at_one_dwpd:.1f}",
            f"{projection.projected_first_failure_days:.1f}",
        ]
        for projection in (result.projection for result in results)
    ]
    sections = [
        f"# {title}",
        "",
        "Projections extrapolate each cell's measured erase rates to the "
        "geometry's P/E-cycle budget (WAF-aware chokepoint: "
        "`repro.endurance.projection.first_failure_horizon`).  TBW is "
        "host bytes writable before the hottest block exhausts its "
        "budget at the measured skew.",
        "",
        _markdown_table(
            ["Cell", "WAF", "Erase avg", "Erase max", "Wear skew",
             "TBW (GB)", "Days @ 1 DWPD", "First failure (days)"],
            rows,
        ),
    ]
    if tenants is not None:
        if tenant_replay is None:
            raise ValueError("tenants need the replay that produced them")
        sections += [
            "",
            "## Per-tenant wear attribution",
            "",
            "Each column sums exactly to the device row (conservation "
            "invariant).",
            "",
            tenant_attribution_table(tenants, tenant_replay),
        ]
    sections.append("")
    return "\n".join(sections)


def save_endurance_report(
    path: str,
    results: "Sequence[EnduranceCellResult]",
    **kwargs: object,
) -> None:
    """Write :func:`endurance_markdown_report` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(endurance_markdown_report(results, **kwargs))  # type: ignore[arg-type]
