"""Regenerates paper Figure 6: the increased ratio of block erases due to
static wear leveling, for FTL and NFTL over the k x T sweep.

The baseline plots at 100%.  Expected shape (Section 5.3): overhead
shrinks as T grows (SWL triggers less) and as k grows (coarser BET, lower
trigger rate).  Beside that total, the paper's quantity, each row splits
it into *direct* cost (SWL's erases over the same run's other erases,
Table 2's denominator) and *induced* cost (the run's non-SWL erases over
the baseline's, minus 1) — see EXPERIMENTS.md.
"""

from __future__ import annotations

from benchmarks.conftest import (
    K_VALUES,
    THRESHOLDS,
    BenchSetup,
    overhead_split,
    report,
)
from repro.sim.metrics import increased_ratio
from repro.util.tables import format_table


#: The total is the paper's quantity; direct and induced split it (see
#: :func:`benchmarks.conftest.overhead_split`).
HEADERS = [
    "Configuration", "Block erases vs baseline (%)",
    "Direct: SWL / non-SWL erases (%)", "Induced: non-SWL erases vs baseline (%)",
]


def _fig6_table(matrix, driver: str):
    baseline = matrix.horizon(driver, None)
    rows: list[list[object]] = [[driver.upper(), 100.0, "-", "-"]]
    ratios = {}
    for paper_t in THRESHOLDS:
        for k in K_VALUES:
            result = matrix.horizon(driver, (k, paper_t))
            ratio = increased_ratio(result.total_erases, baseline.total_erases)
            ratios[(k, paper_t)] = ratio
            direct, induced = overhead_split(
                result.total_erases, result.swl_stats["swl_erases"],
                baseline.total_erases,
            )
            rows.append(
                [f"{driver.upper()}+SWL+{BenchSetup.swl_label((k, paper_t))}",
                 round(ratio, 2), round(direct, 2), f"{induced:+.2f}"]
            )
    return rows, ratios


def _check_shape(ratios: dict) -> None:
    # SWL adds erases; it can never reduce them below the baseline by more
    # than noise.
    assert all(ratio >= 97.0 for ratio in ratios.values()), ratios
    # Larger T means less frequent leveling, hence less overhead (at k=0).
    assert ratios[(0, THRESHOLDS[-1])] <= ratios[(0, THRESHOLDS[0])] + 1.0, ratios


def test_fig6a_ftl_extra_erases(matrix, benchmark):
    rows, ratios = benchmark.pedantic(
        _fig6_table, args=(matrix, "ftl"), rounds=1, iterations=1
    )
    report("fig6a", format_table(
        HEADERS, rows,
        title="Figure 6(a): increased ratio of block erases, FTL",
    ))
    _check_shape(ratios)


def test_fig6b_nftl_extra_erases(matrix, benchmark):
    rows, ratios = benchmark.pedantic(
        _fig6_table, args=(matrix, "nftl"), rounds=1, iterations=1
    )
    report("fig6b", format_table(
        HEADERS, rows,
        title="Figure 6(b): increased ratio of block erases, NFTL",
    ))
    _check_shape(ratios)
