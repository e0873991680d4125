"""Regenerates paper Figure 7: the increased ratio of live-page copyings
due to static wear leveling, for FTL and NFTL over the k x T sweep.

Expected shape (Section 5.3): NFTL's copy overhead stays small (folds
already copy whole blocks, so SWL's extra folds barely register), while
FTL's ratio is much larger "because somehow hot data were often written
in burst in the trace such that the average number of live-page copyings
was very small under FTL" — a small denominator.  The paper's Figure 7(a)
reaches ~300%; ours is in the same regime.  Each row also splits that
total into *direct* cost (SWL's copies over the same run's other copies)
and *induced* cost (the run's non-SWL copies over the baseline's, minus
1): FTL's ratio is mostly induced — see EXPERIMENTS.md.
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
    "Configuration", "Live-page copyings vs baseline (%)",
    "Direct: SWL / non-SWL copyings (%)", "Induced: non-SWL copyings vs baseline (%)",
]


def _fig7_table(matrix, driver: str):
    baseline = matrix.horizon(driver, None)
    rows: list[list[object]] = [[driver.upper(), 100.0, "-", "-"]]
    ratios = {}
    for paper_t in THRESHOLDS:
        for k in K_VALUES:
            result = matrix.horizon(driver, (k, paper_t))
            ratio = increased_ratio(result.live_page_copies, baseline.live_page_copies)
            ratios[(k, paper_t)] = ratio
            direct, induced = overhead_split(
                result.live_page_copies, result.swl_stats["swl_copies"],
                baseline.live_page_copies,
            )
            rows.append(
                [f"{driver.upper()}+SWL+{BenchSetup.swl_label((k, paper_t))}",
                 round(ratio, 2), round(direct, 2), f"{induced:+.2f}"]
            )
    return rows, ratios


def test_fig7a_ftl_extra_copyings(matrix, benchmark):
    rows, ratios = benchmark.pedantic(
        _fig7_table, args=(matrix, "ftl"), rounds=1, iterations=1
    )
    report("fig7a", format_table(
        HEADERS, rows,
        title="Figure 7(a): increased ratio of live-page copyings, FTL",
    ))
    # FTL's baseline copies are tiny (bursty hot data), so the ratio is
    # large — far above the erase overhead.
    assert max(ratios.values()) > 110.0, ratios


def test_fig7b_nftl_extra_copyings(matrix, benchmark):
    rows, ratios = benchmark.pedantic(
        _fig7_table, args=(matrix, "nftl"), rounds=1, iterations=1
    )
    report("fig7b", format_table(
        HEADERS, rows,
        title="Figure 7(b): increased ratio of live-page copyings, NFTL",
    ))
    assert all(ratio >= 97.0 for ratio in ratios.values()), ratios


def test_fig7_ftl_ratio_dwarfs_nftl_ratio(matrix, benchmark):
    """The paper's central Figure 7 contrast: FTL's copy overhead ratio is
    far larger than NFTL's at the same (k, T)."""

    def contrast():
        combo = (K_VALUES[0], THRESHOLDS[0])
        ftl_base = matrix.horizon("ftl", None)
        nftl_base = matrix.horizon("nftl", None)
        ftl = increased_ratio(
            matrix.horizon("ftl", combo).live_page_copies,
            ftl_base.live_page_copies,
        )
        nftl = increased_ratio(
            matrix.horizon("nftl", combo).live_page_copies,
            nftl_base.live_page_copies,
        )
        return ftl, nftl

    ftl, nftl = benchmark.pedantic(contrast, rounds=1, iterations=1)
    print(f"\nFTL copy ratio {ftl:.1f}% vs NFTL copy ratio {nftl:.1f}% "
          f"at k={K_VALUES[0]}, T={THRESHOLDS[0]}")
    assert ftl > nftl
