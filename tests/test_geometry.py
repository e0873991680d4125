"""Tests for NAND geometries and the catalog parts of the paper."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.flash.geometry import (
    GIB,
    MLC2_1GB,
    MLC2_BENCH,
    MLC2_TINY,
    CellType,
    FlashGeometry,
    mlc2,
    slc_large_block,
)


class TestPaperParts:
    """Section 1 / 5.1 fix these organizations exactly."""

    def test_large_block_slc(self):
        geometry = slc_large_block(1 * GIB)
        assert geometry.page_size == 2048
        assert geometry.pages_per_block == 64
        assert geometry.endurance == 100_000

    def test_mlc2_matches_paper_evaluation_chip(self):
        # Section 5.1: 1GB MLC x2, 128 pages/block, 2KB pages, 2,097,152 LBAs.
        assert MLC2_1GB.pages_per_block == 128
        assert MLC2_1GB.page_size == 2048
        assert MLC2_1GB.endurance == 10_000
        assert MLC2_1GB.total_sectors == 2_097_152
        assert MLC2_1GB.num_blocks == 4096
        assert MLC2_1GB.cell_type is CellType.MLC2

    def test_bench_part_keeps_block_organization(self):
        assert MLC2_BENCH.pages_per_block == MLC2_1GB.pages_per_block
        assert MLC2_BENCH.page_size == MLC2_1GB.page_size
        assert MLC2_BENCH.num_blocks < MLC2_1GB.num_blocks

    def test_tiny_part_is_valid(self):
        assert MLC2_TINY.total_pages == 32 * 8


class TestDerivedSizes:
    def test_totals(self):
        geometry = FlashGeometry(4, 8, 2048, 10)
        assert geometry.total_pages == 32
        assert geometry.block_size == 16384
        assert geometry.capacity_bytes == 4 * 16384
        assert geometry.sectors_per_page == 4
        assert geometry.total_sectors == 128

    def test_scaled(self):
        scaled = MLC2_1GB.scaled(num_blocks=64, endurance=100)
        assert scaled.num_blocks == 64
        assert scaled.endurance == 100
        assert scaled.pages_per_block == MLC2_1GB.pages_per_block

    def test_scaled_keeps_endurance_when_omitted(self):
        assert MLC2_1GB.scaled(num_blocks=64).endurance == 10_000


class TestAddressing:
    def test_page_index_roundtrip(self):
        geometry = FlashGeometry(10, 16, 512, 5)
        for index in (0, 1, 159):
            assert geometry.page_index(*geometry.page_address(index)) == index

    def test_contains(self):
        geometry = FlashGeometry(2, 4, 512, 5)
        assert geometry.contains_page(1, 3)
        assert not geometry.contains_page(2, 0)
        assert not geometry.contains_page(0, 4)
        assert not geometry.contains_block(-1)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_blocks": 0},
            {"pages_per_block": 0},
            {"page_size": 0},
            {"page_size": 100},  # not a sector multiple
            {"endurance": 0},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        fields = {"num_blocks": 4, "pages_per_block": 4, "page_size": 512,
                  "endurance": 10}
        fields.update(kwargs)
        with pytest.raises(ValueError):
            FlashGeometry(**fields)

    def test_non_whole_block_capacity_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            mlc2(100)  # 100 bytes is not a whole 256 KB block


@given(
    num_blocks=st.integers(1, 512),
    pages_per_block=st.integers(1, 256),
    index=st.integers(0, 10**6),
)
def test_page_address_roundtrip_property(num_blocks, pages_per_block, index):
    geometry = FlashGeometry(num_blocks, pages_per_block, 512, 10)
    index %= geometry.total_pages
    block, page = geometry.page_address(index)
    assert 0 <= block < num_blocks
    assert 0 <= page < pages_per_block
    assert geometry.page_index(block, page) == index
