#!/usr/bin/env python3
"""Quickstart: build a flash storage stack, write data, watch wear level.

Assembles the paper's full system — NAND chip, MTD layer, an NFTL driver,
and the SW Leveler — on a small simulated chip, runs a skewed host
workload against it with and without static wear leveling, and prints the
wear picture both ways.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import MLC2_TINY, SWLConfig, build_stack
from repro.sim.metrics import EraseDistribution
from repro.util.rng import below
from repro.util.tables import Table


def run_workload(with_swl: bool, *, writes: int = 40_000):
    """Drive one stack with 95%-hot traffic and return its wear summary."""
    stack = build_stack(
        MLC2_TINY,
        driver="nftl",
        swl=SWLConfig(threshold=20, k=0) if with_swl else None,
        store_data=True,
        rng=random.Random(7),
    )
    layer = stack.layer
    rng = random.Random(42)

    # Install some data that will never change (the "cold" problem).
    cold = list(range(layer.num_logical_pages // 2))
    for lpn in cold:
        layer.write(lpn, data=b"cold")

    # Then hammer a small hot set, as caches and logs do.
    hot = list(range(len(cold), len(cold) + layer.num_logical_pages // 10))
    for _ in range(writes):
        layer.write(hot[below(rng, len(hot))], data=b"hot!")

    # Data is intact either way.
    assert all(layer.read(lpn) == b"cold" for lpn in cold)
    return EraseDistribution.from_counts(list(stack.flash.erase_counts))


def main() -> None:
    baseline = run_workload(with_swl=False)
    leveled = run_workload(with_swl=True)
    print(Table(
        ["System", "Avg erases", "Deviation", "Max", "Min"],
        [
            ["NFTL (baseline)", round(baseline.average, 1),
             round(baseline.deviation, 1), baseline.maximum, baseline.minimum],
            ["NFTL + SW Leveler", round(leveled.average, 1),
             round(leveled.deviation, 1), leveled.maximum, leveled.minimum],
        ],
        title="Erase-count distribution after the same workload",
    ).text())
    print(
        "\nWithout the SW Leveler the blocks pinned under cold data sit at "
        f"{baseline.minimum} erases while the hottest reaches {baseline.maximum}; "
        "with it, wear spreads across the whole chip "
        f"(deviation {baseline.deviation:.0f} -> {leveled.deviation:.0f})."
    )


if __name__ == "__main__":
    main()
