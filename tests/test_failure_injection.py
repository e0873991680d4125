"""Failure-injection tests: wear-out mid-operation, corrupted persistence,
and exhausted space."""

from __future__ import annotations

import random

import pytest

from repro.core.bet import BetStore, BlockErasingTable
from repro.core.config import SWLConfig
from repro.flash.chip import NandFlash
from repro.flash.geometry import FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.factory import build_stack, make_layer
from repro.ftl.page_mapping import PageMappingFTL


class TestWearOutDuringOperation:
    def test_layer_survives_wear_out(self, small_geometry):
        # Default chips record wear-out and keep serving; data stays
        # consistent long past the first failure (paper Table 4 runs).
        stack = build_stack(small_geometry, "ftl", store_data=True)
        layer = stack.layer
        rng = random.Random(1)
        expected = {}
        for step in range(40_000):
            lpn = rng.randrange(16)
            payload = step.to_bytes(4, "little")
            layer.write(lpn, data=payload)
            expected[lpn] = payload
        assert stack.flash.worn_blocks  # endurance 50 blows quickly
        for lpn, payload in expected.items():
            assert layer.read(lpn) == payload

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("alloc_policy", ["lifo", "min-wear"])
    @pytest.mark.parametrize("driver", ["ftl", "nftl"])
    def test_wear_out_leaves_one_valid_copy_per_page(
        self, driver, alloc_policy, seed
    ):
        """Past wear-out every erase still clears its block.

        Drivers erase a block right after copying its live pages out (an
        NFTL fold the chip takes as one span leaves its sources valid for
        that erase), so a worn-out block that kept its pages would hold a
        second valid copy of each.
        """
        geometry = FlashGeometry(16, 8, 2048, 20, name="wear-out")
        chip = NandFlash(geometry)
        layer = make_layer(driver, MtdDevice(chip), alloc_policy=alloc_policy)
        rng = random.Random(seed)
        writes_after_failure = 2_000
        while writes_after_failure:
            hot = rng.random() < 0.8
            layer.write(rng.randrange(24 if hot else layer.num_logical_pages))
            if chip.first_failure is not None:
                writes_after_failure -= 1
        assert len(chip.worn_blocks) > 1
        tags = [
            chip.page_lba(block, page)
            for block in range(geometry.num_blocks)
            for page in chip.valid_pages(block)
        ]
        assert len(tags) == len(set(tags))


class TestSpaceExhaustion:
    def test_unreclaimable_space_raises(self):
        # Fill the logical space completely with live data, then demand
        # more blocks than exist by writing without ever invalidating:
        # impossible, so instead shrink physical space via a geometry that
        # leaves a single spare block and verify the error is clean.
        geometry = FlashGeometry(5, 4, 512, 1000)
        with pytest.raises(ValueError, match="no logical space"):
            PageMappingFTL(MtdDevice(NandFlash(geometry)))

    def test_error_message_mentions_cause(self, small_geometry):
        layer = PageMappingFTL(MtdDevice(NandFlash(small_geometry)))
        # Write every logical page once: all valid, no invalid pages.
        for lpn in range(layer.num_logical_pages):
            layer.write(lpn)
        # The pool has spare blocks, so this state is fine; now force the
        # allocator dry by requesting forced recycles into full space
        # repeatedly — the driver must either make progress or raise the
        # documented error, never corrupt state.
        for block in range(small_geometry.num_blocks):
            layer.recycle_block_range(range(block, block + 1))
        for lpn in range(layer.num_logical_pages):
            assert layer.mapping_of(lpn) is not None


class TestCorruptedPersistence:
    def test_both_slots_corrupt_returns_none(self, tmp_path):
        paths = (str(tmp_path / "a"), str(tmp_path / "b"))
        store = BetStore(paths)
        bet = BlockErasingTable(8)
        bet.record_erase(1)
        store.save(bet)
        store.save(bet)
        for path in paths:
            with open(path, "r+b") as handle:
                handle.seek(0)
                handle.write(b"\xde\xad\xbe\xef")
        assert BetStore(paths).load() is None

    def test_truncated_slot_skipped(self, tmp_path):
        paths = (str(tmp_path / "a"), str(tmp_path / "b"))
        store = BetStore(paths)
        first = BlockErasingTable(8)
        first.record_erase(3)
        store.save(first)
        second = BlockErasingTable(8)
        second.record_erase(5)
        store.save(second)
        # Truncate whichever slot holds the newer image.
        for path in paths:
            with open(path, "rb") as handle:
                raw = handle.read()
            try:
                _, sequence = BlockErasingTable.from_bytes(raw)
            except ValueError:
                continue
            if sequence == 2:
                with open(path, "wb") as handle:
                    handle.write(raw[: len(raw) // 2])
        loaded = BetStore(paths).load()
        assert loaded is not None
        assert loaded.is_set(3)

    def test_restore_after_unclean_shutdown_is_stale_not_wrong(self, small_geometry):
        # Paper Section 3.2: "If the system is not properly shut down, we
        # propose to load any existing correct version of the BET."
        stack = build_stack(small_geometry, "ftl", None)
        store = BetStore()
        early = BlockErasingTable(small_geometry.num_blocks)
        for block in range(4):
            early.record_erase(block)
        store.save(early)
        # Crash before the newer state is saved; reload yields the early
        # snapshot whose counters undercount but never overcount.
        swl_stack = build_stack(small_geometry, "ftl", swl=SWLConfig(threshold=50))
        assert swl_stack.leveler.restore(store)
        assert swl_stack.leveler.bet.ecnt == 4
