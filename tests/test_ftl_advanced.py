"""Tests for the Cleaner refinements: wear-aware victim selection,
erase-on-demand reclamation, and cold-destination separation."""

from __future__ import annotations

import random

import pytest

from repro.core.config import SWLConfig
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.flash.chip import NandFlash
from repro.flash.errors import UncorrectableReadError
from repro.flash.geometry import FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.cleaner import CyclicScanner
from repro.ftl.factory import build_stack
from repro.ftl.nftl import NFTL
from repro.ftl.page_mapping import PageMappingFTL
from repro.util.rng import make_rng

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


def check_picks(layer, chip, picks):
    """Referee every Cleaner pick of ``layer`` with the whole-ring walk.

    Before each free-space pass and each erase-on-demand search, the walk
    over the live tallies names the victim; the pass must recycle that
    block (or none), and leave the cursor (one past the victim) and
    ``probes`` where the walk predicts.
    """
    gc_once, recycle = layer._gc_once, layer._recycle_dead_block
    relocate = layer._relocate_and_erase
    ppb = layer.geometry.pages_per_block

    def checked(pick, reference):
        frontiers = layer._frontier_blocks()
        scanner = layer.scanner
        victim, cursor, probes = reference(frontiers)
        expected = (cursor, scanner.probes + probes)
        recycled = []

        def relocate_seen(block, **kwargs):
            recycled.append(block)
            relocate(block, **kwargs)

        layer._relocate_and_erase = relocate_seen
        try:
            pick()
        finally:
            del layer._relocate_and_erase
            assert recycled == ([] if victim is None else [victim])
            assert (scanner.cursor, scanner.probes) == expected
        picks.append((pick.__name__, victim, probes > scanner.size))

    def free_space(frontiers):
        return reference_gc_scan(
            layer.scanner.cursor, layer._invalid, layer._valid,
            chip.erase_counts,
            lambda block: not (
                layer.allocator.contains(block)
                or block in layer.retired_blocks or block in frontiers
            ),
        )

    def dead(frontiers):
        return reference_gc_scan(
            layer.scanner.cursor, layer._invalid, layer._valid,
            chip.erase_counts,
            lambda block: not (
                layer.allocator.contains(block) or block in frontiers
                or layer._valid[block]
            ),
            min_benefit=ppb, fallback=False,
        )

    layer._gc_once = lambda: checked(gc_once, free_space)
    layer._recycle_dead_block = lambda: checked(recycle, dead)


class TestVictimIndex:
    def test_victims_match_the_ring_walk(self):
        # The Cleaner looks its victims up in ``victims``; every pick must
        # still be the one a walk over all blocks makes -- through skewed
        # single-page and batched writes, program and erase faults, reads
        # that fail halfway through a relocation, a checkpoint restore
        # into a twin and an attach-time rebuild.
        geometry = FlashGeometry(
            num_blocks=64, pages_per_block=8, page_size=2048, endurance=50,
        )
        injector = FaultInjector(
            FaultPlan(seed=3, erase_fail_prob=0.003, read_ber=4e-4)
        )
        stack = build_stack(
            geometry, "ftl", op_ratio=0.25, rng=make_rng(0), injector=injector,
        )
        ftl, chip = stack.layer, stack.flash
        rng = random.Random(7)
        ppb = geometry.pages_per_block
        span = ftl.num_logical_pages
        picks = []

        def churn(layer, writes):
            for count in range(writes):
                if count % 500 == 250:
                    # Poison an open frontier, host or copy in turn: its
                    # next program fails and the block is retired.
                    frontier = (layer._host_frontier, layer._copy_frontier)[
                        count // 500 % 2
                    ]
                    if frontier is not None:
                        injector.bad_program_blocks.add(frontier[0])
                lpn = int(span * rng.random() ** 3)
                try:
                    if rng.random() < 0.2:
                        layer.write_pages(range(lpn, min(span, lpn + rng.randint(2, 2 * ppb))))
                    else:
                        layer.write(lpn)
                except UncorrectableReadError:
                    pass  # a Cleaner copy failed: the victim stays half moved

        check_picks(ftl, chip, picks)
        churn(ftl, 2000)
        twin = PageMappingFTL(stack.mtd, op_ratio=0.25)
        twin.restore_state(ftl.snapshot_state())
        check_picks(twin, chip, picks)
        churn(twin, 2000)
        twin.rebuild_mapping()
        churn(twin, 2000)
        twin.assert_internal_consistency()
        assert ftl.stats.program_faults and twin.stats.program_faults > ftl.stats.program_faults
        assert twin.stats.erase_retries
        assert injector.stats.reads_uncorrectable
        kinds = {(name, fell_back) for name, _, fell_back in picks}
        assert kinds == {
            ("_gc_once", False), ("_gc_once", True),
            ("_recycle_dead_block", False),
        }
        assert len({victim for _, victim, _ in picks}) > geometry.num_blocks // 2

    def test_closed_frontier_is_refiled(self, small_geometry):
        # An open frontier is vetoed and unmarked while it fills; once
        # closed, a block whose own pages were overwritten is the victim.
        ftl, chip = make_ftl(small_geometry)
        ppb = small_geometry.pages_per_block
        for _ in range(ppb):
            ftl.write(0)  # one valid copy, ppb - 1 invalid, all in one block
        block = ftl.mapping_of(0)[0]
        for lpn in range(1, ppb + 1):
            ftl.write(lpn)  # closes that block and fills the next one
        picks = []
        check_picks(ftl, chip, picks)
        ftl._gc_once()
        assert picks == [("_gc_once", block, False)]

    def test_worn_out_dead_block_is_not_picked_again(self, small_geometry):
        # A dead block whose erase fails for good is retired, not pooled:
        # no veto of the erase-on-demand pick covers it, only its refiling.
        chip = NandFlash(small_geometry, store_data=True)
        block = small_geometry.num_blocks - 1  # LIFO hands it out first
        for _ in range(small_geometry.endurance):
            chip.erase(block)  # worn to its rating while still blank
        # Erases fail for certain at the rating, all but never below it.
        chip.attach_injector(FaultInjector(
            FaultPlan(erase_fail_prob=1.0, erase_weibull_shape=64.0)))
        ftl = PageMappingFTL(MtdDevice(chip))
        ppb = small_geometry.pages_per_block
        picks = []
        check_picks(ftl, chip, picks)
        for lpn in range(ppb):
            ftl.write(lpn)
        assert ftl.mapping_of(0)[0] == block
        for _ in range(4):
            for lpn in range(ppb):
                ftl.write(lpn)
        ftl._recycle_dead_block()  # the last round's dead block
        ftl._recycle_dead_block()  # ... and then nothing, not the retiree
        assert block in ftl.retired_blocks
        assert chip.erase_counts[block] == small_geometry.endurance
        assert ("_recycle_dead_block", block, False) in picks
        assert picks[-1] == ("_recycle_dead_block", None, False)

    def test_marks_stay_bounded_without_free_space_gc(self, small_geometry):
        # Marks wait for the next least-worn pick.  When none comes (the
        # erase-on-demand pick keeps the pool full), that pick drains them
        # before they outnumber the blocks: at most one host block's worth
        # of pages lands between two of its calls.
        ftl, _ = make_ftl(small_geometry)
        rng = random.Random(5)
        bound = small_geometry.num_blocks + small_geometry.pages_per_block
        for _ in range(5000):
            ftl.write(rng.randrange(4 * small_geometry.pages_per_block))
            assert len(ftl.victims.marked) <= bound
        assert ftl.stats.dead_recycles and not ftl.stats.gc_runs

    def test_no_ring_walk_at_1024_blocks(self, monkeypatch):
        # Neither scan of the candidate-taking scanner runs, and no pick
        # walks the ring: it refiles at most the blocks marked since the
        # previous pick, moves at most the fallback slots of blocks marked
        # or refiled since the previous fallback, and asks ``eligible``
        # about at most the open frontiers (vetoed) and its victim.
        def walked(*args, **kwargs):
            raise AssertionError("the FTL walked the ring")

        monkeypatch.setattr(CyclicScanner, "find_least_worn", walked)
        monkeypatch.setattr(CyclicScanner, "find_best_fallback", walked)
        assert not hasattr(PageMappingFTL, "_ring")
        geometry = FlashGeometry(
            num_blocks=1024, pages_per_block=8, page_size=2048, endurance=100,
        )
        ftl = build_stack(geometry, "ftl").layer
        victims = ftl.victims
        refile, refile_slots = victims.refile, victims._refile_slots
        since_fallback = set()
        work = {"refiled": 0, "slotted": 0}
        looked = []

        def counted_refile(unit):
            since_fallback.add(unit)
            work["refiled"] += 1
            refile(unit)

        def counted_refile_slots(units):
            units = list(units)
            work["slotted"] += len(units)
            refile_slots(units)

        def counted(name):
            pick = getattr(victims, name)

            def counted_pick(eligible):
                marked = set(victims.marked)
                since_fallback.update(marked)
                due = len(since_fallback) if name == "fallback" else 0
                asked = []

                def seen(unit):
                    asked.append(unit)
                    return eligible(unit)

                refiled, slotted = work["refiled"], work["slotted"]
                victim = pick(seen)
                assert work["refiled"] - refiled <= len(marked)
                assert work["slotted"] - slotted <= due
                assert len(asked) <= len(ftl._frontier_blocks()) + 1
                if name == "fallback":
                    since_fallback.clear()
                looked.append((name, len(asked)))
                return victim

            monkeypatch.setattr(victims, name, counted_pick)

        monkeypatch.setattr(victims, "refile", counted_refile)
        monkeypatch.setattr(victims, "_refile_slots", counted_refile_slots)
        for name in ("least_worn", "dead", "fallback"):
            counted(name)
        rng = random.Random(1)
        span = ftl.num_logical_pages
        ftl.write_pages(range(span))
        for _ in range(6000):
            ftl.write(int(span * rng.random() ** 2))
        assert ftl.stats.gc_runs and ftl.stats.dead_recycles
        assert ftl.scanner.probes > 1000 * geometry.num_blocks
        assert {name for name, _ in looked} == {"least_worn", "dead", "fallback"}
        assert len(looked) > 1000


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
