"""Tests for NFTL attach-time mapping reconstruction."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.flash.chip import NandFlash
from repro.flash.geometry import FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.ftl.nftl import NFTL


def make_nftl(geometry):
    chip = NandFlash(geometry, store_data=True)
    return NFTL(MtdDevice(chip)), chip


class TestRebuild:
    def test_recovers_primary_only_chains(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        ppb = small_geometry.pages_per_block
        for offset in range(ppb):
            nftl.write(offset, data=bytes([offset]))
        recovered = nftl.rebuild_mapping()
        assert recovered == 1
        for offset in range(ppb):
            assert nftl.read(offset) == bytes([offset])

    def test_recovers_replacement_chains(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        nftl.write(0, data=b"v1")
        nftl.write(0, data=b"v2")
        nftl.write(1, data=b"one")
        original = nftl.chain_of(0)
        primary, replacement = original.primary, original.replacement
        nftl.rebuild_mapping()
        chain = nftl.chain_of(0)
        assert chain.primary == primary
        assert chain.replacement == replacement
        assert chain.repl_next == 1
        assert nftl.read(0) == b"v2"
        assert nftl.read(1) == b"one"

    def test_recovers_after_heavy_churn(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        rng = random.Random(5)
        expected = {}
        for step in range(5000):
            lpn = rng.randrange(nftl.num_logical_pages)
            payload = step.to_bytes(4, "little")
            nftl.write(lpn, data=payload)
            expected[lpn] = payload
        recovered = nftl.rebuild_mapping()
        assert recovered > 0
        for lpn, payload in expected.items():
            assert nftl.read(lpn) == payload

    def test_writes_continue_after_rebuild(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        for lpn in range(20):
            nftl.write(lpn, data=b"a")
        nftl.rebuild_mapping()
        rng = random.Random(6)
        for _ in range(2000):
            nftl.write(rng.randrange(20), data=b"b")
        assert all(nftl.read(lpn) == b"b" for lpn in range(20))

    def test_free_pool_matches_unowned_blocks(self, small_geometry):
        nftl, chip = make_nftl(small_geometry)
        rng = random.Random(7)
        for _ in range(3000):
            nftl.write(rng.randrange(nftl.num_logical_pages))
        nftl.rebuild_mapping()
        owned = {
            block
            for chain in nftl._chains
            if chain is not None
            for block in (chain.primary, chain.replacement)
            if block is not None
        }
        assert owned.isdisjoint(nftl.allocator.free_blocks())
        assert len(owned) + nftl.allocator.free_count == small_geometry.num_blocks

    def test_empty_device_rebuilds_to_nothing(self, small_geometry):
        nftl, _ = make_nftl(small_geometry)
        assert nftl.rebuild_mapping() == 0
        assert nftl.allocator.free_count == small_geometry.num_blocks


@settings(max_examples=15, deadline=None)
@given(writes=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
                       max_size=250))
def test_rebuild_preserves_all_content_property(writes):
    geometry = FlashGeometry(16, 4, 512, 10_000)
    nftl, _ = make_nftl(geometry)
    expected = {}
    for raw, value in writes:
        lpn = raw % nftl.num_logical_pages
        nftl.write(lpn, data=bytes([value]))
        expected[lpn] = bytes([value])
    nftl.rebuild_mapping()
    for lpn in range(nftl.num_logical_pages):
        assert nftl.read(lpn) == expected.get(lpn)
