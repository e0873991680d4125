"""Empirical validation of the Section 4 worst-case model (Tables 2-3).

Constructs the exact scenario of paper Figure 4 — C blocks of cold data,
H-1 blocks of uniformly updated hot data, one free block's worth of
slack — runs it with the SW Leveler at k = 0, and splits the measured
overhead three ways:

* **direct** — SWL erases over the same run's other (non-SWL) erases.
  This is the paper's quantity: Table 2's ``C / (T(H+C) - C)`` divides
  the C forced erases of one resetting interval by that interval's other
  erases.  Being a worst case, the formula bounds it;
* **induced** — the run's non-SWL erases over the no-SWL baseline's,
  minus 1: relocated cold data and displaced hot data make the Cleaner
  erase more often.  The formula does not model this;
* **total** — all erases over the baseline's, minus 1 (Figure 6's
  "increased ratio of block erases").

Copies get the same direct treatment: SWL copies over the run's other
copies, bounded by Table 3's ``C N / ((T(H+C) - C) L)`` with ``L`` the
run's non-SWL copies per non-SWL erase.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from benchmarks.conftest import report
from repro.analysis.overhead import WorstCaseConfig
from repro.core.config import SWLConfig
from repro.flash.geometry import CellType, FlashGeometry
from repro.ftl.factory import StorageStack, build_stack
from repro.util.rng import below
from repro.util.tables import format_table

def figure4_geometry(num_blocks: int) -> FlashGeometry:
    """32-page SLC blocks that never wear out within a run."""
    return FlashGeometry(
        num_blocks=num_blocks, pages_per_block=32, page_size=512,
        endurance=10_000_000, cell_type=CellType.SLC, name="figure4",
    )


#: Scenario: 16 blocks total, C=6 cold, hot working set of 3 blocks.
GEOMETRY = figure4_geometry(16)
COLD_BLOCKS = 6
HOT_BLOCKS = 3
WRITES = 120_000


def figure4_stack(
    geometry: FlashGeometry, swl: SWLConfig | None
) -> StorageStack:
    """An FTL stack for the scenario; ``swl=None`` runs no SWL."""
    return build_stack(geometry, "ftl", swl, rng=random.Random(0))


def drive_figure4(
    stack: StorageStack, cold_blocks: int, hot_blocks: int, writes: int
) -> None:
    """Write ``cold_blocks`` of cold data once, then ``writes`` uniform
    updates over ``hot_blocks`` blocks' worth of hot pages."""
    layer = stack.layer
    ppb = stack.flash.geometry.pages_per_block
    for lpn in range(cold_blocks * ppb):
        layer.write(lpn)
    hot = range(cold_blocks * ppb, (cold_blocks + hot_blocks) * ppb)
    rng = random.Random(1)
    for _ in range(writes):
        layer.write(hot[below(rng, len(hot))])


class DirectOverhead(NamedTuple):
    """One SWL run's direct cost against the Table 2 and 3 bounds."""

    erases: float        #: SWL erases / non-SWL erases
    erase_bound: float   #: Table 2: C / (T(H+C) - C)
    copies: float        #: SWL copies / non-SWL copies
    copy_bound: float    #: Table 3: C N / ((T(H+C) - C) L)
    non_swl_erases: int


def direct_overhead(stack: StorageStack, cold_blocks: int) -> DirectOverhead:
    """Split ``stack``'s erases and copies into SWL and non-SWL parts."""
    leveler = stack.leveler
    assert leveler is not None
    erases, copies = stack.layer.swl_cost_probe()
    swl_erases = leveler.stats.swl_erases
    swl_copies = leveler.stats.swl_copies
    non_swl_erases = erases - swl_erases
    non_swl_copies = copies - swl_copies
    geometry = stack.flash.geometry
    # The churn set is the whole non-cold space, so H + C is the chip.
    config = WorstCaseConfig(
        hot_blocks=geometry.num_blocks - cold_blocks,
        cold_blocks=cold_blocks,
        threshold=leveler.threshold,
    )
    return DirectOverhead(
        erases=swl_erases / non_swl_erases,
        erase_bound=config.extra_erase_ratio(),
        copies=swl_copies / non_swl_copies,
        copy_bound=config.extra_copy_ratio(
            geometry.pages_per_block, non_swl_copies / non_swl_erases
        ),
        non_swl_erases=non_swl_erases,
    )


def _run(threshold: float | None) -> StorageStack:
    stack = figure4_stack(
        GEOMETRY, SWLConfig(threshold=threshold, k=0) if threshold else None
    )
    drive_figure4(stack, COLD_BLOCKS, HOT_BLOCKS, WRITES)
    return stack


def test_worstcase_model_validation(benchmark):
    thresholds = (10.0, 50.0)

    def validate():
        baseline = _run(None).flash.total_erases()
        measured = {
            threshold: direct_overhead(_run(threshold), COLD_BLOCKS)
            for threshold in thresholds
        }
        return baseline, measured

    baseline, measured = benchmark.pedantic(validate, rounds=1, iterations=1)
    rows = []
    for threshold, split in measured.items():
        induced = split.non_swl_erases / baseline - 1.0
        total = (1.0 + split.erases) * (1.0 + induced) - 1.0
        rows.append([
            f"T = {threshold:g}",
            f"{100 * split.erases:.2f}% (≤ {100 * split.erase_bound:.2f}%)",
            f"{100 * induced:+.1f}%",
            f"{100 * total:+.1f}%",
            f"{100 * split.copies:.2f}% (≤ {100 * split.copy_bound:.2f}%)",
        ])
    report("worstcase_validation", format_table(
        ["Scenario", "Direct SWL erases (Table 2 bound)",
         "Induced non-SWL erases", "Total erases (Figure 6)",
         "Direct SWL copies (Table 3 bound)"],
        rows,
        title="Section 4 worst-case model vs simulation (Figure 4 scenario, "
              f"{baseline:,} baseline erases)",
    ))
    for threshold, split in measured.items():
        # The formulas are worst cases; this scenario is built to be
        # near-worst, so the measurement is also not far below them.
        assert split.erases <= split.erase_bound, (threshold, split)
        assert split.erases > split.erase_bound / 10.0, (threshold, split)
        assert split.copies <= split.copy_bound, (threshold, split)
    # And the ratio scales ~linearly in 1/T, as the formula says.
    small_t, large_t = thresholds
    scaling = measured[small_t].erases / max(measured[large_t].erases, 1e-12)
    assert 2.0 < scaling < 12.0, scaling
