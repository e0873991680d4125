"""Integration tests: the full stack reproducing the paper's phenomena.

These tests run the real chip + driver + SW Leveler + workload pipeline at
miniature scale and assert the paper's qualitative claims:

* static data pins blocks under plain dynamic wear leveling;
* the SW Leveler collapses the erase-count deviation and extends the
  first failure time (Section 5.2);
* the extra overhead behaves like the worst-case analysis (Section 4.2);
* BET persistence plus FTL table rebuild survive a simulated power cycle.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bet import BetStore
from repro.core.config import SWLConfig
from repro.ftl.factory import build_stack
from repro.sim.engine import Simulator, StopCondition
from repro.sim.experiment import (
    ExperimentSpec,
    run_until_first_failure,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.sim.metrics import EraseDistribution
from repro.traces.generator import MobilePCWorkload


def small_bench_geometry():
    return scaled_mlc2_geometry(24, scale=200).scaled(
        num_blocks=24, endurance=60, name="itest-24b"
    )


@pytest.fixture(scope="module")
def shared_trace():
    geometry = small_bench_geometry()
    spec = ExperimentSpec("ftl", geometry, seed=2)
    params = workload_params_for(spec, duration=3 * 3600.0, seed=7)
    workload = MobilePCWorkload(params)
    return geometry, workload.requests(), workload.prefill_requests()


class TestStaticDataPinsBlocks:
    def test_baseline_has_untouched_blocks(self, shared_trace):
        geometry, trace, warmup = shared_trace
        spec = ExperimentSpec("ftl", geometry, seed=2)
        result = run_until_first_failure(spec, trace, warmup=warmup)
        # Paper Section 1: "blocks of cold data are likely to stay intact".
        assert result.erase_distribution.minimum <= 2
        assert result.erase_distribution.deviation > 10


class TestEnduranceImprovement:
    @pytest.mark.parametrize("driver", ["ftl", "nftl"])
    def test_swl_extends_first_failure(self, shared_trace, driver):
        geometry, trace, warmup = shared_trace
        baseline_spec = ExperimentSpec(driver, geometry, seed=2)
        swl_spec = ExperimentSpec(
            driver, geometry, SWLConfig(threshold=2, k=0), seed=2
        )
        baseline = run_until_first_failure(baseline_spec, trace, warmup=warmup)
        leveled = run_until_first_failure(swl_spec, trace, warmup=warmup)
        assert leveled.first_failure_time > baseline.first_failure_time
        assert (
            leveled.erase_distribution.deviation
            < baseline.erase_distribution.deviation
        )
        # The leveled run uses nearly the whole chip's budget: its minimum
        # block erase count is no longer near zero.
        assert leveled.erase_distribution.minimum > baseline.erase_distribution.minimum

    def test_every_erase_reaches_the_bet(self, shared_trace):
        geometry, trace, warmup = shared_trace
        spec = ExperimentSpec("nftl", geometry, SWLConfig(threshold=3, k=0), seed=2)
        simulator = Simulator(spec.build(), skip_reads=True)
        for request in warmup:
            simulator.apply(request)
        for request in trace[:20_000]:
            simulator.apply(request)
        stack = simulator.stack
        # ecnt counts erases since the last BET reset; reconstruct totals.
        leveler = stack.leveler
        # Total erases on the chip must equal erases accumulated across all
        # resetting intervals; verify via monotone per-interval counting:
        assert leveler.bet.ecnt <= stack.flash.total_erases()
        # Every set flag corresponds to >= 1 erased (or handled) block set.
        assert leveler.bet.fcnt >= len(
            {block >> leveler.bet.k for block, count in
             enumerate(stack.flash.erase_counts) if count > 0}
        ) - leveler.bet.resets * leveler.bet.size


class TestWorstCaseOverheadModel:
    def test_hot_cold_partition_matches_analysis_order(self):
        """Build the exact Figure 4 scenario and compare measured extra
        erases with the Section 4.2 worst-case bound."""
        from repro.flash.geometry import FlashGeometry, CellType

        geometry = FlashGeometry(
            num_blocks=16, pages_per_block=8, page_size=512,
            endurance=10_000, cell_type=CellType.SLC, name="worst-case",
        )
        threshold = 10.0

        def run(with_swl: bool):
            stack = build_stack(
                geometry,
                "ftl",
                SWLConfig(threshold=threshold, k=0) if with_swl else None,
                rng=random.Random(0),
            )
            layer = stack.layer
            ppb = geometry.pages_per_block
            cold_pages = 6 * ppb                     # C blocks of cold data
            for lpn in range(cold_pages):
                layer.write(lpn)
            hot = list(range(cold_pages, cold_pages + 3 * ppb))
            rng = random.Random(1)
            for _ in range(30_000):
                layer.write(rng.choice(hot))
            return stack

        baseline = run(with_swl=False)
        leveled = run(with_swl=True)
        # Direct SWL erases (EraseBlockSet calls) stay near the Section 4.2
        # worst-case bound C / (T * (H + C)) with C = 6, H + C = 16.  The
        # *total* erase overhead is larger because moved cold pages keep
        # getting re-copied by later garbage collection — the same effect
        # that makes FTL's Figure 7(a) copy ratio large in the paper.
        bound = 6 / (threshold * 16)
        direct_ratio = leveled.leveler.stats.swl_erases / baseline.flash.total_erases()
        assert 0 < direct_ratio < 3 * bound
        assert leveled.flash.total_erases() > baseline.flash.total_erases()
        # And the leveling goal is achieved: cold blocks no longer pinned.
        assert min(leveled.flash.erase_counts) > 0
        assert min(baseline.flash.erase_counts) == 0

    def test_overhead_decreases_with_threshold(self, shared_trace):
        geometry, trace, warmup = shared_trace
        horizon_cap = 60_000
        totals = {}
        for threshold in (2, 8):
            spec = ExperimentSpec(
                "ftl", geometry, SWLConfig(threshold=threshold, k=0), seed=2
            )
            simulator = Simulator(spec.build(), skip_reads=True)
            for request in warmup:
                simulator.apply(request)
            result = simulator.run(
                iter(trace), StopCondition(max_requests=horizon_cap)
            )
            totals[threshold] = result.total_erases
        assert totals[8] <= totals[2]


class TestCrashRecovery:
    def test_bet_survives_power_cycle(self, shared_trace, tmp_path):
        geometry, trace, warmup = shared_trace
        store = BetStore((str(tmp_path / "a.bet"), str(tmp_path / "b.bet")))

        spec = ExperimentSpec("ftl", geometry, SWLConfig(threshold=4, k=0), seed=2)
        simulator = Simulator(spec.build(), skip_reads=True)
        for request in warmup:
            simulator.apply(request)
        for request in trace[:5_000]:
            simulator.apply(request)
        first_stack = simulator.stack
        first_stack.leveler.persist(store)
        saved_ecnt = first_stack.leveler.bet.ecnt

        # "Reboot": a fresh stack reloads the BET from flash-side storage.
        second_stack = spec.build()
        assert second_stack.leveler.restore(store) is True
        assert second_stack.leveler.bet.ecnt == saved_ecnt

    def test_ftl_remap_after_crash_preserves_data(self, small_geometry):
        stack = build_stack(small_geometry, "ftl", store_data=True)
        layer = stack.layer
        rng = random.Random(9)
        expected = {}
        for step in range(2_000):
            lpn = rng.randrange(layer.num_logical_pages)
            payload = step.to_bytes(4, "little")
            layer.write(lpn, data=payload)
            expected[lpn] = payload
        # Crash: RAM table lost; rebuild from spare-area tags.
        layer.rebuild_mapping()
        for lpn, payload in expected.items():
            assert layer.read(lpn) == payload


class TestWearOutContinuation:
    def test_simulation_continues_past_wear_out(self, shared_trace):
        # Paper Table 4 keeps simulating "even though some blocks were worn
        # out"; the chip must keep serving and keep counting.
        geometry, trace, warmup = shared_trace
        spec = ExperimentSpec("nftl", geometry, seed=2)
        simulator = Simulator(spec.build(), skip_reads=True)
        for request in warmup:
            simulator.apply(request)

        from repro.traces.extend import SegmentResampler
        from repro.util.rng import make_rng

        endless = SegmentResampler(trace, rng=make_rng(4)).iter_requests()
        result = simulator.run(endless, StopCondition(max_requests=120_000))
        assert simulator.stack.flash.worn_blocks
        assert result.first_failure_time is not None
        assert result.sim_time > result.first_failure_time
        distribution = EraseDistribution.from_counts(
            simulator.stack.flash.erase_counts
        )
        assert distribution.maximum > geometry.endurance
