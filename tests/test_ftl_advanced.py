"""Tests for the Cleaner refinements: wear-aware victim selection,
erase-on-demand reclamation, and cold-destination separation."""

from __future__ import annotations

import random

import pytest

from repro.core.config import SWLConfig
from repro.flash.chip import NandFlash
from repro.flash.geometry import FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.cleaner import CyclicScanner
from repro.ftl.factory import build_stack
from repro.ftl.nftl import NFTL
from repro.ftl.page_mapping import PageMappingFTL

from tests.test_allocator_cleaner import reference_gc_scan, ring


def make_ftl(geometry, **kwargs):
    chip = NandFlash(geometry, store_data=True)
    return PageMappingFTL(MtdDevice(chip), **kwargs), chip


class TestFindLeastWorn:
    def test_prefers_smallest_wear_among_qualifying(self):
        scanner = CyclicScanner(6)
        benefit = [0, 5, 0, 5, 0, 5]
        wear = [0, 9, 0, 2, 0, 4]
        assert scanner.find_least_worn(ring(benefit, [0] * 6, wear)) == 3

    def test_ignores_non_qualifying_even_if_unworn(self):
        scanner = CyclicScanner(4)
        benefit, cost = [1, 0, 3, 0], [5, 0, 1, 0]
        assert scanner.find_least_worn(ring(benefit, cost, [0, 0, 100, 0])) == 2

    def test_none_when_nothing_qualifies(self):
        scanner = CyclicScanner(4)
        assert scanner.find_least_worn(ring([0] * 4, [0] * 4, [0] * 4)) is None

    def test_cursor_advances_past_choice(self):
        scanner = CyclicScanner(4)
        scanner.find_least_worn(ring([0, 5, 0, 0], [0] * 4, [0] * 4))
        assert scanner.cursor == 2


class TestEraseOnDemand:
    def test_dead_blocks_reused_before_virgin_pool(self, small_geometry):
        # Overwrite one block's worth of data repeatedly: steady state must
        # recycle the dead blocks, leaving most of the pool untouched.
        ftl, chip = make_ftl(small_geometry)
        free_before = ftl.allocator.free_count
        ppb = small_geometry.pages_per_block
        for round_number in range(40):
            for lpn in range(ppb):
                ftl.write(lpn)
        assert ftl.stats.dead_recycles > 0
        # With LIFO + erase-on-demand only a handful of blocks ever left
        # the pool.
        untouched = sum(1 for count in chip.erase_counts if count == 0)
        assert untouched >= small_geometry.num_blocks // 2

    def test_wear_concentrates_without_swl(self, small_geometry):
        ftl, chip = make_ftl(small_geometry)
        ppb = small_geometry.pages_per_block
        for _ in range(60):
            for lpn in range(ppb):
                ftl.write(lpn)
        worn = [count for count in chip.erase_counts if count > 0]
        assert max(worn) >= 10  # the hot blocks absorb the cycling


    @pytest.mark.parametrize("cursor", [0, 30, 31])
    def test_tied_dead_blocks_recycle_in_ring_order(self, small_geometry, cursor):
        # The dead-block search hands the scanner only the fully-invalid
        # blocks; with several dead at equal wear it must still pick what
        # a walk of the whole ring from the cursor picks.
        ftl, chip = make_ftl(small_geometry)
        ppb = small_geometry.pages_per_block
        lpns = range(3 * ppb)
        last_pages = range(ppb - 1, 3 * ppb, ppb)
        for lpn in lpns:
            ftl.write(lpn)
        blocks = [ftl.mapping_of(lpn)[0] for lpn in last_pages]
        for lpn in lpns:  # leave one live page in each of the three
            if lpn not in last_pages:
                ftl.write(lpn)
        assert ftl.stats.dead_recycles == 0
        for lpn in last_pages:  # ... and kill all three inside one block
            ftl.write(lpn)
        assert sorted(blocks) == [29, 30, 31]
        assert [chip.erase_counts[block] for block in blocks] == [0, 0, 0]

        ftl.scanner.cursor = cursor
        frontiers = ftl._frontier_blocks()

        def dead(block):
            return not (
                ftl.allocator.contains(block) or block in frontiers
                or ftl._valid[block]
            )

        while True:
            victim, after, _ = reference_gc_scan(
                ftl.scanner.cursor, ftl._invalid, ftl._valid,
                chip.erase_counts, dead, min_benefit=ppb,
            )
            if victim is None:
                break
            recycled = ftl.stats.dead_recycles
            ftl._recycle_dead_block()
            assert ftl.stats.dead_recycles == recycled + 1
            assert chip.erase_counts[victim] == 1 and ftl.scanner.cursor == after
            blocks.remove(victim)
        assert not blocks
        ftl._recycle_dead_block()  # nothing left: accounted, not recycled
        assert ftl.stats.dead_recycles == 3 and ftl.scanner.cursor == after


class TestColdFrontierSeparation:
    def test_forced_recycle_does_not_share_copy_destination(self, small_geometry):
        ftl, chip = make_ftl(small_geometry)
        ppb = small_geometry.pages_per_block
        # Cold block full of unique data.
        for lpn in range(ppb):
            ftl.write(lpn, data=lpn.to_bytes(2, "little"))
        cold_block = ftl.mapping_of(0)[0]
        ftl.recycle_block_range(range(cold_block, cold_block + 1))
        destination = ftl.mapping_of(0)[0]
        assert ftl._cold_frontier is not None
        # All relocated pages share one destination block (pure cold).
        destinations = {ftl.mapping_of(lpn)[0] for lpn in range(ppb)}
        assert destinations == {destination}
        # And the Cleaner's copy frontier was not opened for this.
        assert ftl._copy_frontier is None

    def test_cold_frontier_closed_when_recycled(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        ppb = small_geometry.pages_per_block
        for lpn in range(ppb // 2):
            ftl.write(lpn, data=b"x")
        block = ftl.mapping_of(0)[0]
        ftl.recycle_block_range(range(block, block + 1))
        cold_block = ftl._cold_frontier[0]
        ftl.recycle_block_range(range(cold_block, cold_block + 1))
        assert ftl.read(0) == b"x"


class TestPromotePath:
    def test_ftl_promotes_free_blocks_on_recycle_request(self, small_geometry):
        ftl, _ = make_ftl(small_geometry)
        # All blocks free initially; request a recycle of a buried block.
        buried = 0
        assert ftl.allocator.contains(buried)
        assert ftl.recycle_block_range(range(buried, buried + 1)) == 0
        ftl.write(0)
        assert ftl.mapping_of(0)[0] == buried  # it surfaced first

    def test_nftl_promotes_free_blocks(self, small_geometry):
        chip = NandFlash(small_geometry, store_data=True)
        nftl = NFTL(MtdDevice(chip))
        buried = 0
        assert nftl.recycle_block_range(range(buried, buried + 1)) == 0
        nftl.write(0)
        assert nftl.chain_of(0).primary == buried


class TestAllocPolicyPlumbing:
    @pytest.mark.parametrize("driver", ["ftl", "nftl"])
    def test_policy_reaches_allocator(self, small_geometry, driver):
        stack = build_stack(small_geometry, driver, alloc_policy="min-wear")
        assert stack.layer.allocator.policy == "min-wear"
        stack = build_stack(small_geometry, driver)
        assert stack.layer.allocator.policy == "lifo"

    def test_rebuild_keeps_policy(self, small_geometry):
        ftl, _ = make_ftl(small_geometry, alloc_policy="min-wear")
        ftl.write(0)
        ftl.rebuild_mapping()
        assert ftl.allocator.policy == "min-wear"


class TestWearAwareVictims:
    def test_gc_spreads_wear_across_churn_set(self):
        geometry = FlashGeometry(16, 8, 512, 100_000)
        ftl, chip = make_ftl(geometry, alloc_policy="min-wear")
        rng = random.Random(3)
        # Scattered overwrites keep blocks mixed so copy-GC must run.
        span = ftl.num_logical_pages
        for _ in range(20_000):
            ftl.write(rng.randrange(span))
        assert ftl.stats.gc_runs > 0
        churn = [count for count in chip.erase_counts if count > 0]
        # Wear-aware victim selection keeps the spread tight: max within
        # 3x of the mean of churning blocks.
        mean = sum(churn) / len(churn)
        assert max(churn) <= 3 * mean
