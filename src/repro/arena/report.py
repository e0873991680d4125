"""Leaderboard and cell tables of a policy-arena tournament."""

from __future__ import annotations

from repro.arena.tournament import ArenaResult
from repro.util.tables import Table, markdown_document


def _days(value: float) -> str:
    return "inf" if value == float("inf") else f"{value:.1f}"


def _ram(ram_bytes: int) -> str:
    if ram_bytes >= 1 << 20:
        return f"{ram_bytes / (1 << 20):.1f} MiB"
    if ram_bytes >= 1 << 10:
        return f"{ram_bytes / (1 << 10):.1f} KiB"
    return f"{ram_bytes} B"


def leaderboard_table(result: ArenaResult) -> Table:
    """One row per leveler, aggregated over every workload."""
    return Table(
        ["leveler", "label", "endurance (days)", "gain", "extra erases",
         "WAF", "RAM", "p99 (ms)", "faults"],
        [
            [entry.leveler,
             entry.label,
             _days(entry.endurance_days),
             f"{entry.endurance_gain:.2f}x",
             entry.extra_erases,
             f"{entry.waf:.3f}",
             _ram(entry.ram_bytes),
             f"{entry.p99_s * 1e3:.2f}",
             "ok" if entry.faults_ok else "FAIL"]
            for entry in result.leaderboard
        ],
        "Policy arena leaderboard",
    )


def cells_table(result: ArenaResult) -> Table:
    """One row per (workload × leveler) cell."""
    return Table(
        ["workload", "leveler", "total erases", "extra", "WAF", "skew",
         "endurance (days)"],
        [
            [cell.workload, cell.leveler, cell.total_erases,
             cell.extra_erases, f"{cell.waf:.3f}", f"{cell.wear_skew:.2f}",
             _days(cell.endurance_days)]
            for cell in result.cells
        ],
    )


def arena_report(result: ArenaResult) -> str:
    """The tournament as a markdown document (leaderboard + cell table)."""
    return markdown_document("Policy arena", [
        f"Geometry `{result.geometry}`, driver `{result.driver}`, "
        f"horizon {result.horizon_s / 86_400.0:.2f} simulated days, "
        f"seed {result.seed}.",
        f"Workloads: {', '.join(result.workloads)}.  Endurance is the "
        "projected first-failure horizon at the replayed pace (mean over "
        "workloads); extra erases are summed against each workload's "
        "baseline; WAF counts physical programs per host page (cache "
        "absorption deducted); RAM is the mechanism's controller-memory "
        "accounting; p99 comes from an open-loop service soak onto a "
        "freshly built, empty device: too short to erase a block, it is "
        "bare program latency, not leveling interference.  The faults "
        "verdict comes from a campaign that writes through the driver, "
        "below the stack's host entry, so a write-back cache never sees "
        "its writes: cache-avoid's verdict is its driver's alone.  Its "
        "plan injects no transient fault, only the power losses, and on a "
        "fresh FTL chip its 600 soak writes erase no block and its 10 "
        "losses strike plain first writes: the column checks crash "
        "recovery of a fresh device, not a fault or any mechanism's work.",
        "## Leaderboard",
        leaderboard_table(result).markdown(),
        "## Cells",
        cells_table(result).markdown(),
    ])
