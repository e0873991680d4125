"""Tests for NFTL (paper Section 2.2, Figure 2(b))."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flash.chip import PAGE_VALID, NandFlash
from repro.flash.errors import TranslationError
from repro.flash.geometry import FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.nftl import NFTL

from tests.test_allocator_cleaner import reference_gc_scan


def make_nftl(geometry, **kwargs):
    chip = NandFlash(geometry, store_data=True)
    return NFTL(MtdDevice(chip), **kwargs), chip


class TestAddressSplit:
    def test_vba_and_offset(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        ppb = small_geometry.pages_per_block
        assert nftl.split_lpn(0) == (0, 0)
        assert nftl.split_lpn(ppb - 1) == (0, ppb - 1)
        assert nftl.split_lpn(ppb) == (1, 0)

    def test_range_check(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        for lpn in (nftl.num_logical_pages, -1):
            with pytest.raises(TranslationError, match=f"logical page {lpn} out of"):
                nftl.read(lpn)
            with pytest.raises(TranslationError, match=f"logical page {lpn} out of"):
                nftl.write(lpn)
        # A rejected page is not a host access.
        assert nftl.stats.host_reads == nftl.stats.host_writes == 0

    def test_chain_of_range_check(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        with pytest.raises(IndexError):
            nftl.chain_of(nftl.num_vbas)


class TestPrimaryBlockWrites:
    def test_first_write_lands_at_home_offset(self, small_geometry):
        nftl, chip = make_nftl(small_geometry)
        nftl.write(3, data=b"x")
        chain = nftl.chain_of(0)
        assert chain is not None
        assert chip.page_lba(chain.primary, 3) == 3
        assert nftl.read(3) == b"x"

    def test_unwritten_offsets_read_none(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        nftl.write(0)
        assert nftl.read(1) is None

    def test_distinct_vbas_get_distinct_primaries(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        ppb = small_geometry.pages_per_block
        nftl.write(0)
        nftl.write(ppb)
        assert nftl.chain_of(0).primary != nftl.chain_of(1).primary


class TestReplacementBlocks:
    def test_overwrite_goes_to_replacement(self, small_geometry):
        # Figure 2(b): subsequent writes "are sequentially written to the
        # replacement block".
        nftl, chip = make_nftl(small_geometry)
        nftl.write(2, data=b"v1")
        nftl.write(2, data=b"v2")
        chain = nftl.chain_of(0)
        assert chain.replacement is not None
        assert chain.repl_next == 1
        assert chip.page_lba(chain.replacement, 0) == 2
        assert nftl.read(2) == b"v2"

    def test_replacement_writes_are_sequential(self, small_geometry):
        nftl, chip = make_nftl(small_geometry)
        nftl.write(0, data=b"a0")
        for value in range(3):
            nftl.write(0, data=bytes([value]))
        chain = nftl.chain_of(0)
        assert chain.repl_next == 3
        # Most-recent content wins (the paper's B=10 example).
        assert nftl.read(0) == bytes([2])

    def test_fold_on_full_replacement(self, small_geometry):
        nftl, chip = make_nftl(small_geometry)
        ppb = small_geometry.pages_per_block
        nftl.write(0, data=b"seed")
        for step in range(ppb + 3):  # overflow the replacement
            nftl.write(0, data=step.to_bytes(2, "little"))
        assert nftl.stats.folds >= 1
        assert nftl.read(0) == (ppb + 2).to_bytes(2, "little")

    def test_fold_preserves_every_offset(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        ppb = small_geometry.pages_per_block
        for offset in range(ppb):
            nftl.write(offset, data=bytes([offset]))
        for _ in range(ppb + 1):  # force a fold via offset 0 rewrites
            nftl.write(0, data=b"new")
        assert nftl.read(0) == b"new"
        for offset in range(1, ppb):
            assert nftl.read(offset) == bytes([offset])


class TestGarbageCollection:
    def test_gc_folds_under_pressure(self, small_geometry):
        nftl, chip = make_nftl(small_geometry)
        rng = random.Random(1)
        span = nftl.num_logical_pages
        for _ in range(4000):
            nftl.write(rng.randrange(span))
        assert nftl.stats.folds > 0
        assert chip.counters.erases > 0
        assert nftl.allocator.free_count >= 1

    def test_victims_match_the_dense_tally(self, small_geometry):
        # The Cleaner is handed only the chains indexed in ``_replaced``;
        # every pass must still pick what a walk over all VBAs with three
        # num_vbas-long tallies picks — through hotspot churn over static
        # cold data, a checkpoint restore and an attach-time rebuild.
        nftl, chip = make_nftl(small_geometry)
        rng = random.Random(6)
        span = nftl.num_logical_pages
        passes = []

        def check_gc_passes(layer):
            gc_once = layer._gc_once

            def checked_gc_once():
                size = layer.num_vbas
                benefit, cost, wear = [0] * size, [0] * size, [0] * size
                for chain in layer._chains:
                    if chain is not None and chain.replacement is not None:
                        benefit[chain.vba] = chain.invalid_pages()
                        cost[chain.vba] = chain.valid_offsets
                        wear[chain.vba] = chip.erase_counts[chain.primary]
                scanner = layer.scanner
                victim, cursor, probes = reference_gc_scan(
                    scanner.cursor, benefit, cost, wear, lambda unit: True
                )
                expected = (cursor, scanner.probes + probes)
                gc_once()
                # The cursor sits one past the victim, so it pins it.
                assert (scanner.cursor, scanner.probes) == expected
                passes.append((victim, probes > size))

            layer._gc_once = checked_gc_once

        def churn(layer, writes):
            for _ in range(writes):
                layer.write(2 * int(span // 2 * rng.random() ** 6))

        check_gc_passes(nftl)
        # Even pages only: a half-full chain qualifies under the strict
        # rule once its replacement is over half written, so both the
        # least-worn scan and the fallback get to decide passes.
        for lpn in range(0, span, 2):
            nftl.write(lpn)
        churn(nftl, 1500)
        restored = NFTL(MtdDevice(chip))
        restored.restore_state(nftl.snapshot_state())
        check_gc_passes(restored)
        churn(restored, 1500)
        restored.rebuild_mapping()
        churn(restored, 1500)
        restored.assert_internal_consistency()
        assert len(passes) > 300
        # Both scans decided passes, over more victims than one hot chain.
        assert {fell_back for _, fell_back in passes} == {False, True}
        assert len({victim for victim, _ in passes}) > 3

    def test_data_integrity_under_churn(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        rng = random.Random(2)
        expected = {}
        for step in range(4000):
            lpn = rng.randrange(nftl.num_logical_pages)
            payload = step.to_bytes(4, "little")
            nftl.write(lpn, data=payload)
            expected[lpn] = payload
        for lpn, payload in expected.items():
            assert nftl.read(lpn) == payload


class TestForcedRecycle:
    def test_folds_owning_chain(self, small_geometry):
        nftl, chip = make_nftl(small_geometry)
        nftl.write(0, data=b"cold")
        chain = nftl.chain_of(0)
        old_primary = chain.primary
        recycled = nftl.recycle_block_range(range(old_primary, old_primary + 1))
        assert recycled == 1
        assert chain.primary != old_primary
        assert nftl.read(0) == b"cold"
        assert chip.erase_counts[old_primary] == 1

    def test_replacement_block_recycles_chain(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        nftl.write(0, data=b"v1")
        nftl.write(0, data=b"v2")
        replacement = nftl.chain_of(0).replacement
        recycled = nftl.recycle_block_range(range(replacement, replacement + 1))
        assert recycled == 1
        chain = nftl.chain_of(0)
        assert chain.replacement is None
        assert nftl.read(0) == b"v2"

    def test_free_blocks_skipped(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        free_block = next(iter(nftl.allocator.free_blocks()))
        assert nftl.recycle_block_range(range(free_block, free_block + 1)) == 0

    def test_same_chain_once_per_range(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        nftl.write(0, data=b"a")
        nftl.write(0, data=b"b")
        chain = nftl.chain_of(0)
        lo = min(chain.primary, chain.replacement)
        hi = max(chain.primary, chain.replacement)
        if hi == lo + 1:
            recycled = nftl.recycle_block_range(range(lo, hi + 1))
            # After the first fold both old blocks are free, so the second
            # block in the range no longer has an owner.
            assert recycled == 1
            assert nftl.stats.folds == 1


class TestChainAccounting:
    def test_invalid_pages_counter(self, small_geometry):
        nftl, chip = make_nftl(small_geometry)
        nftl.write(0)
        nftl.write(0)
        nftl.write(0)
        chain = nftl.chain_of(0)
        # Home page + first replacement page superseded.
        assert chain.invalid_pages() == 2
        assert chain.valid_offsets == 1

    def test_owner_map_tracks_blocks(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        nftl.write(0)
        nftl.write(0)
        chain = nftl.chain_of(0)
        assert nftl._owner[chain.primary] is chain
        assert nftl._owner[chain.replacement] is chain

    def test_replacement_index_follows_the_chains(self, small_geometry):
        # The Cleaner tallies only the VBAs indexed as owning a
        # replacement; the index is derived state, so every way of
        # (re)building the chains must rebuild it too.
        nftl, chip = make_nftl(small_geometry)
        rng = random.Random(4)
        for _ in range(3000):
            nftl.write(rng.randrange(nftl.num_logical_pages))
        owners = {
            chain.vba for chain in nftl._chains
            if chain is not None and chain.replacement is not None
        }
        assert nftl._replaced == owners and owners
        assert nftl.stats.gc_runs > 0
        nftl.assert_internal_consistency()
        snapshot = nftl.snapshot_state()
        restored = NFTL(MtdDevice(chip))
        restored.restore_state(snapshot)
        assert restored._replaced == owners
        assert restored.snapshot_state() == snapshot
        restored.rebuild_mapping()
        assert restored._replaced == owners
        restored._replaced.pop()
        with pytest.raises(AssertionError, match="replacement index"):
            restored.assert_internal_consistency()

    def test_valid_offsets_match_chip(self, small_geometry):
        nftl, chip = make_nftl(small_geometry)
        rng = random.Random(3)
        for _ in range(3000):
            nftl.write(rng.randrange(nftl.num_logical_pages))
        total_valid = sum(
            chip.count_pages(block, PAGE_VALID)
            for block in range(small_geometry.num_blocks)
        )
        tracked = sum(
            chain.valid_offsets for chain in nftl._chains if chain is not None
        )
        assert total_valid == tracked


@settings(max_examples=20, deadline=None)
@given(
    writes=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                    max_size=300),
)
def test_nftl_read_your_writes_property(writes):
    geometry = FlashGeometry(16, 4, 512, 10_000)
    nftl, _ = make_nftl(geometry)
    expected = {}
    for raw_lpn, value in writes:
        lpn = raw_lpn % nftl.num_logical_pages
        nftl.write(lpn, data=bytes([value]))
        expected[lpn] = bytes([value])
    for lpn in range(nftl.num_logical_pages):
        assert nftl.read(lpn) == expected.get(lpn)


@settings(max_examples=10, deadline=None)
@given(
    writes=st.lists(st.integers(0, 10_000), max_size=300),
    seed=st.integers(0, 100),
)
def test_ftl_and_nftl_agree_on_content(writes, seed):
    """Both translation layers must expose identical logical contents."""
    from repro.ftl.page_mapping import PageMappingFTL

    geometry = FlashGeometry(16, 4, 512, 10_000)
    nftl, _ = make_nftl(geometry)
    ftl = PageMappingFTL(MtdDevice(NandFlash(geometry, store_data=True)))
    span = min(nftl.num_logical_pages, ftl.num_logical_pages)
    rng = random.Random(seed)
    for raw in writes:
        lpn = raw % span
        payload = bytes([rng.randrange(256)])
        nftl.write(lpn, data=payload)
        ftl.write(lpn, data=payload)
    for lpn in range(span):
        assert nftl.read(lpn) == ftl.read(lpn)
