"""Ablation D: the paper's BET-based SW Leveler vs counter-based leveling.

The paper's pitch is "limited memory-space requirements and an efficient
implementation": one bit per 2^k blocks instead of the per-block erase
counters of prior designs (Ban's patent [10], TrueFFS [16]).  This bench
runs both mechanisms on the same workload and prints the trade:
controller RAM vs first failure time vs leveling quality vs overhead.

Expected outcome: comparable endurance from both, with the BET at a
fraction of the RAM — the paper's central engineering claim.
"""

from __future__ import annotations

from benchmarks.conftest import SEED, THRESHOLDS, BenchSetup, report
from repro.analysis.memory import bet_size_bytes
from repro.core.policies import LevelerSpec
from repro.sim.experiment import ExperimentSpec, run_until_first_failure
from repro.util.tables import format_table


def _run_dual_pool(setup: BenchSetup):
    """The counter-based cell's first failure, and its controller RAM."""
    counters = LevelerSpec(
        kind="dual-pool", delta=setup.geometry.endurance // 20,
        check_period=64,
    )
    spec = ExperimentSpec("nftl", setup.geometry, counters, seed=SEED)
    result = run_until_first_failure(
        spec, setup.base_trace, warmup=setup.warmup
    )
    return result, spec.build().leveler.ram_bytes


def test_ablation_mechanism_comparison(bench_setup, matrix, benchmark):
    def comparison():
        baseline = matrix.first_failure("nftl", None)
        bet_result = matrix.first_failure("nftl", (0, THRESHOLDS[0]))
        counter_result, counter_ram = _run_dual_pool(bench_setup)
        return baseline, bet_result, counter_result, counter_ram

    baseline, bet_result, counter_result, counter_ram = benchmark.pedantic(
        comparison, rounds=1, iterations=1
    )
    num_blocks = bench_setup.geometry.num_blocks

    def row(label, ram, result):
        years = result.first_failure_years
        gain = 100.0 * (years / baseline.first_failure_years - 1.0)
        return [label, ram, round(years, 4), f"{gain:+.1f}%",
                round(result.erase_distribution.deviation, 1)]

    rows = [
        ["NFTL (baseline)", "-", round(baseline.first_failure_years, 4),
         "-", round(baseline.erase_distribution.deviation, 1)],
        row(f"BET SW Leveler (k=0, T={THRESHOLDS[0]})",
            f"{bet_size_bytes(num_blocks, 0)}B", bet_result),
        row("Counter-based (Ban-style)",
            f"{counter_ram}B", counter_result),
    ]
    report("ablation_mechanism", format_table(
        ["Mechanism", "Controller RAM", "First failure (y)",
         "vs baseline", "Erase dev."],
        rows,
        title="Ablation D: BET vs per-block counters (NFTL)",
    ))
    # Both mechanisms must deliver a large endurance win...
    assert bet_result.first_failure_years > baseline.first_failure_years * 1.3
    assert counter_result.first_failure_years > baseline.first_failure_years * 1.3
    # ...but the BET does it in a fraction of the RAM (the paper's claim).
    assert bet_size_bytes(num_blocks, 0) * 8 <= counter_ram
