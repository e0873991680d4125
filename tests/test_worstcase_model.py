"""The paper's Section 4 worst-case model as an oracle for the simulator.

Paper Figure 4's scenario — C blocks of cold data written once, uniform
updates over a few hot blocks — is the case Tables 2 and 3 bound.  Over
a grid of chips, cold sets and thresholds, a whole run's direct SWL
overhead must stay within those bounds (``direct_overhead`` in the
worst-case bench measures it with the paper's denominators).  And
SWL-Procedure must never force-recycle a block set twice in one
resetting interval, under either selection policy: once recycled, a
set's flag is 1 until the BET resets (Algorithm 1, steps 9-12).

Per-interval ratios are deliberately not asserted: a whole interval
holds C forced erases against about T(H+C) - C others, but where a
window is cut decides which of them it counts (cut at each interval's
first forced recycle, some windows at T = 10 read 6/153 against the
bound's 6/154).
"""

from __future__ import annotations

import pytest

from benchmarks.bench_worstcase_validation import (
    direct_overhead,
    drive_figure4,
    figure4_geometry,
    figure4_stack,
)
from repro.core.config import SWLConfig

WRITES = 30_000


@pytest.mark.parametrize("blocks,cold,hot,threshold", [
    (16, 6, 3, 10), (16, 4, 3, 10), (16, 8, 3, 5), (12, 4, 2, 5),
    (20, 8, 4, 10), (16, 6, 3, 20), (16, 2, 5, 10),
])
def test_whole_run_direct_overhead_within_tables_2_and_3(
    blocks, cold, hot, threshold
):
    stack = figure4_stack(
        figure4_geometry(blocks), SWLConfig(threshold=threshold, k=0)
    )
    drive_figure4(stack, cold, hot, WRITES)
    split = direct_overhead(stack, cold)
    assert stack.leveler.stats.bet_resets >= 2   # the intervals closed
    assert 0 < split.erases <= split.erase_bound, split
    assert 0 < split.copies <= split.copy_bound, split


@pytest.mark.parametrize("selection", ["sequential", "random"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_no_block_set_is_recycled_twice_in_one_interval(k, selection):
    stack = figure4_stack(
        figure4_geometry(16), SWLConfig(threshold=10, k=k, selection=selection)
    )
    bet, layer = stack.leveler.bet, stack.layer
    recycles: list[tuple[int, int]] = []
    recycle = layer.recycle_block_range

    def recording(blocks: range) -> int:
        recycles.append((bet.resets, blocks.start >> k))
        return recycle(blocks)

    layer.recycle_block_range = recording
    drive_figure4(stack, 6, 3, WRITES)
    assert bet.resets >= 2 and recycles
    repeated = sorted({call for call in recycles if recycles.count(call) > 1})
    assert not repeated, f"(interval, set) recycled twice: {repeated}"
