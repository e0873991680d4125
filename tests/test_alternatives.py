"""Tests for the challenger wear-leveling mechanisms.

Covers the counter-based :class:`DualPoolLeveler` (Ban-patent style),
the cache-based wear-avoidance front-end :class:`CacheAvoidLeveler`,
and the software-only cyclic scrubber :class:`SoftWearLeveler`.
"""

from __future__ import annotations

import random

import pytest

from repro.core.alternatives import (
    CacheAvoidLeveler,
    DualPoolLeveler,
    SoftWearLeveler,
)
from repro.ftl.factory import build_stack


def attach_dual_pool(stack, **kwargs):
    leveler = DualPoolLeveler(stack.flash.erase_counts, stack.layer, **kwargs)
    stack.layer.attach_leveler(leveler)
    return leveler


class ProbeHost:
    """Fake WearLevelingHost that records recycles and fakes costs.

    Blocks listed in ``free`` recycle to 0 (nothing to erase); any other
    block counts one erase and one copy.  When given the leveler's
    ``counts`` list, a successful recycle bumps the block's erase count
    by ``bump`` — the wear feedback a real chip would produce.
    """

    def __init__(self, free=(), counts=None, bump=1):
        self.free = set(free)
        self.counts = counts
        self.bump = bump
        self.recycled = []
        self._erases = 0
        self._copies = 0

    def swl_cost_probe(self):
        return (self._erases, self._copies)

    def recycle_block_range(self, blocks):
        done = 0
        for block in blocks:
            self.recycled.append(block)
            if block in self.free:
                continue
            self._erases += 1
            self._copies += 1
            if self.counts is not None:
                self.counts[block] += self.bump
            done += 1
        return done


class FakeLayer:
    """Records the page writes/reads the cache front-end passes through."""

    def __init__(self):
        self.writes = []
        self.reads = []

    def write(self, lpn):
        self.writes.append(lpn)

    def read(self, lpn):
        self.reads.append(lpn)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs", [{"delta": 0}, {"check_period": 0}, {"batch": 0}]
    )
    def test_validation(self, small_geometry, kwargs):
        stack = build_stack(small_geometry, "ftl")
        with pytest.raises(ValueError):
            DualPoolLeveler(stack.flash.erase_counts, stack.layer, **kwargs)

    def test_ram_cost_dwarfs_bet(self, small_geometry):
        from repro.analysis.memory import bet_size_bytes

        stack = build_stack(small_geometry, "ftl")
        leveler = DualPoolLeveler(stack.flash.erase_counts, stack.layer)
        # The paper's RAM argument: counters cost 32x a k=0 BET.
        assert leveler.ram_bytes == 32 * bet_size_bytes(
            small_geometry.num_blocks, 0
        )


class TestLeveling:
    def _run_hot_cold(self, stack, writes=30_000):
        layer = stack.layer
        rng = random.Random(4)
        # Pin cold data in half the logical space.
        half = layer.num_logical_pages // 2
        for lpn in range(half, layer.num_logical_pages):
            layer.write(lpn)
        for _ in range(writes):
            layer.write(rng.randrange(16))

    def test_evens_wear_like_swl(self, small_geometry):
        baseline = build_stack(small_geometry, "ftl")
        self._run_hot_cold(baseline)

        leveled = build_stack(small_geometry, "ftl")
        leveler = attach_dual_pool(leveled, delta=8, check_period=16)
        self._run_hot_cold(leveled)

        def deviation(counts):
            mean = sum(counts) / len(counts)
            return (sum((c - mean) ** 2 for c in counts) / len(counts)) ** 0.5

        assert leveler.stats.swaps > 0
        assert deviation(leveled.flash.erase_counts) < deviation(
            baseline.flash.erase_counts
        )

    def test_no_action_below_delta(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        leveler = attach_dual_pool(stack, delta=10_000, check_period=8)
        self._run_hot_cold(stack, writes=5_000)
        assert leveler.stats.swaps == 0
        assert leveler.stats.checks > 0

    def test_overhead_attributed(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        leveler = attach_dual_pool(stack, delta=8, check_period=16)
        self._run_hot_cold(stack)
        assert leveler.stats.swl_erases >= leveler.stats.swaps

    def test_works_on_nftl(self, small_geometry):
        stack = build_stack(small_geometry, "nftl")
        leveler = attach_dual_pool(stack, delta=8, check_period=16)
        self._run_hot_cold(stack, writes=15_000)
        assert leveler.stats.swaps > 0
        assert min(stack.flash.erase_counts) > 0


class TestBatchLeveling:
    """Regression: a free coldest block must not abort the batch."""

    def test_free_coldest_tries_next_coldest(self):
        counts = [100, 0, 1, 2, 50, 50, 50, 50]
        host = ProbeHost(free={1})
        leveler = DualPoolLeveler(
            counts, host, delta=8, check_period=1, batch=2
        )
        leveler.on_block_erased(0)
        # Block 1 (coldest) was free: excluded, not counted as a swap;
        # the batch continues with the next-coldest block 2 instead of
        # aborting.  (The fake host never mutates the counts, so the
        # second batch iteration legitimately picks block 2 again.)
        assert host.recycled == [1, 2, 2]
        assert leveler.stats.swaps == 2

    def test_all_cold_blocks_free_ends_check_cleanly(self):
        counts = [100, 0, 1, 100, 100, 100, 100, 100]
        host = ProbeHost(free={1, 2})
        leveler = DualPoolLeveler(
            counts, host, delta=8, check_period=1, batch=2
        )
        leveler.on_block_erased(0)
        assert host.recycled == [1, 2]
        assert leveler.stats.swaps == 0
        assert leveler.stats.checks == 1

    def test_batch_stops_when_spread_closes(self):
        # Only block 1 is >= delta colder than the hottest; once its
        # swap feeds wear back (bump=9), the spread drops to 10-9 < 8
        # and the remaining batch budget goes unused.
        counts = [10, 0, 9, 9, 9, 9, 9, 9]
        host = ProbeHost(counts=counts, bump=9)
        leveler = DualPoolLeveler(
            counts, host, delta=8, check_period=1, batch=3
        )
        leveler.on_block_erased(0)
        assert host.recycled == [1]
        assert leveler.stats.swaps == 1

    def test_stats_accounting(self):
        counts = [100, 0, 1, 2, 50, 50, 50, 50]
        host = ProbeHost(free={1})
        leveler = DualPoolLeveler(
            counts, host, delta=8, check_period=1, batch=2
        )
        leveler.on_block_erased(0)
        stats = leveler.stats
        # The free probe costs nothing; the two real swaps cost one
        # erase and one copy each (ProbeHost's cost model).
        assert stats.swl_erases == 2
        assert stats.swl_copies == 2
        assert stats.as_dict() == {
            "checks": 1,
            "swaps": 2,
            "swl_erases": 2,
            "swl_copies": 2,
        }


class TestDualPoolCheckpoint:
    def _worked(self):
        counts = [100, 0, 1, 2, 50, 50, 50, 50]
        host = ProbeHost(free={1})
        leveler = DualPoolLeveler(
            counts, host, delta=8, check_period=4, batch=2
        )
        leveler.on_block_retired(7)
        for _ in range(6):
            leveler.on_block_erased(0)
        return counts, leveler

    def test_snapshot_round_trip(self):
        counts, leveler = self._worked()
        frozen = leveler.snapshot_state()
        twin = DualPoolLeveler(
            list(counts), ProbeHost(), delta=8, check_period=4, batch=2
        )
        twin.restore_state(frozen)
        assert twin.snapshot_state() == frozen
        assert twin.stats.as_dict() == leveler.stats.as_dict()
        assert twin._erases_since_check == leveler._erases_since_check
        assert twin._retired == {7}

    @pytest.mark.parametrize(
        "patch,match",
        [
            ({"kind": "softwear"}, "kind"),
            ({"delta": 99}, "delta"),
            ({"check_period": 99}, "check_period"),
            ({"batch": 99}, "batch"),
            ({"num_blocks": 99}, "blocks"),
        ],
    )
    def test_restore_rejects_mismatch(self, patch, match):
        _, leveler = self._worked()
        frozen = dict(leveler.snapshot_state())
        frozen.update(patch)
        twin = DualPoolLeveler(
            [0] * 8, ProbeHost(), delta=8, check_period=4, batch=2
        )
        with pytest.raises(ValueError, match=match):
            twin.restore_state(frozen)


class TestCacheAvoid:
    def test_validation(self):
        with pytest.raises(ValueError):
            CacheAvoidLeveler(cache_pages=0)
        with pytest.raises(ValueError):
            CacheAvoidLeveler(cache_pages=4, page_size=0)

    def test_rewrites_are_absorbed(self):
        layer = FakeLayer()
        leveler = CacheAvoidLeveler(cache_pages=4, page_size=512)
        for _ in range(10):
            leveler.host_write(layer, 7)
        assert layer.writes == []
        assert leveler.stats.hits == 9
        assert leveler.stats.misses == 1
        assert leveler.stats.resident == 1

    def test_lru_eviction_flushes_the_oldest(self):
        layer = FakeLayer()
        leveler = CacheAvoidLeveler(cache_pages=2, page_size=512)
        leveler.host_write(layer, 1)
        leveler.host_write(layer, 2)
        leveler.host_write(layer, 1)      # touch 1: 2 becomes LRU
        leveler.host_write(layer, 3)      # full: evict 2
        assert layer.writes == [2]
        assert leveler.stats.evictions == 1
        assert leveler.stats.resident == 2

    def test_reads_prefer_the_dirty_cached_copy(self):
        layer = FakeLayer()
        leveler = CacheAvoidLeveler(cache_pages=4, page_size=512)
        leveler.host_write(layer, 5)
        leveler.host_read(layer, 5)       # dirty in cache: flash is stale
        leveler.host_read(layer, 6)       # uncached: goes to flash
        assert layer.reads == [6]
        assert leveler.stats.read_hits == 1

    def test_ram_cost_is_a_page_buffer_per_slot(self):
        leveler = CacheAvoidLeveler(cache_pages=64, page_size=2048)
        assert leveler.ram_bytes == 64 * (2048 + 4)

    def test_snapshot_round_trip_keeps_lru_order(self):
        layer = FakeLayer()
        leveler = CacheAvoidLeveler(cache_pages=3, page_size=512)
        for lpn in (1, 2, 3, 1):          # LRU order now 2, 3, 1
            leveler.host_write(layer, lpn)
        frozen = leveler.snapshot_state()
        twin = CacheAvoidLeveler(cache_pages=3, page_size=512)
        twin.restore_state(frozen)
        assert twin.snapshot_state() == frozen
        # The restored twin evicts the same victim the original would.
        twin.host_write(layer, 4)
        leveler.host_write(layer, 4)
        assert list(twin._cache) == list(leveler._cache)

    def test_restore_rejects_mismatch(self):
        leveler = CacheAvoidLeveler(cache_pages=3, page_size=512)
        frozen = dict(leveler.snapshot_state())
        with pytest.raises(ValueError, match="kind"):
            CacheAvoidLeveler(cache_pages=3).restore_state(
                {**frozen, "kind": "swl"}
            )
        with pytest.raises(ValueError, match="capacity"):
            CacheAvoidLeveler(cache_pages=8).restore_state(frozen)


class TestSoftWear:
    def test_validation(self):
        host = ProbeHost()
        with pytest.raises(ValueError):
            SoftWearLeveler(0, host)
        with pytest.raises(ValueError):
            SoftWearLeveler(8, host, period_requests=0)
        with pytest.raises(ValueError):
            SoftWearLeveler(8, host, span_blocks=0)

    def test_scrubs_once_per_request_bucket(self):
        host = ProbeHost()
        leveler = SoftWearLeveler(8, host, period_requests=4)
        for _ in range(12):
            leveler.on_request()
        # Buckets 1, 2, 3 (requests 4, 8, 12) each scrub once; bucket 0
        # never does — an idle device earns no forced wear.
        assert leveler.stats.scrubs == 3
        assert host.recycled == [0, 1, 2]
        assert leveler.cursor == 3

    def test_retired_blocks_are_skipped(self):
        host = ProbeHost()
        leveler = SoftWearLeveler(4, host, period_requests=2)
        leveler.on_block_retired(0)
        for _ in range(2):
            leveler.on_request()
        assert host.recycled == [1]

    def test_free_blocks_counted_separately(self):
        host = ProbeHost(free={0})
        leveler = SoftWearLeveler(4, host, period_requests=2, span_blocks=2)
        for _ in range(2):
            leveler.on_request()
        assert leveler.stats.skipped_free == 1
        assert leveler.stats.moves == 1

    def test_suspend_defers_resume_replays(self):
        host = ProbeHost()
        leveler = SoftWearLeveler(8, host, period_requests=2)
        leveler.suspend()
        for _ in range(3):
            leveler.on_request()
        assert host.recycled == []
        leveler.resume()
        assert host.recycled == [0]
        assert leveler.stats.scrubs == 1

    def test_o1_ram(self):
        assert SoftWearLeveler(1_000_000, ProbeHost()).ram_bytes == 8

    def test_snapshot_round_trip(self):
        host = ProbeHost()
        leveler = SoftWearLeveler(8, host, period_requests=4)
        leveler.on_block_retired(5)
        for _ in range(9):
            leveler.on_request(now=3.5)
        frozen = leveler.snapshot_state()
        twin = SoftWearLeveler(8, ProbeHost(), period_requests=4)
        twin.restore_state(frozen)
        assert twin.snapshot_state() == frozen
        assert twin.cursor == leveler.cursor
        assert twin.clock.requests == leveler.clock.requests

    def test_restore_rejects_mismatch(self):
        leveler = SoftWearLeveler(8, ProbeHost(), period_requests=4)
        frozen = leveler.snapshot_state()
        with pytest.raises(ValueError, match="period_requests"):
            SoftWearLeveler(8, ProbeHost(), period_requests=2).restore_state(
                frozen
            )
        with pytest.raises(ValueError, match="kind"):
            SoftWearLeveler(8, ProbeHost(), period_requests=4).restore_state(
                {**frozen, "kind": "dual-pool"}
            )
