"""Tests for the MTD layer and timing models."""

from __future__ import annotations

import pytest

from repro.flash.chip import PAGE_VALID, NandFlash
from repro.flash.errors import AddressError
from repro.flash.geometry import FlashGeometry, CellType
from repro.flash.mtd import MtdDevice
from repro.flash.timing import MLC2_TIMING, SLC_TIMING, TimingModel, timing_for


class TestMtd:
    def test_busy_time_accumulates(self, mtd):
        start = mtd.busy_time
        mtd.write_page(0, 0, lba=1)
        after_write = mtd.busy_time
        mtd.read_page(0, 0)
        after_read = mtd.busy_time
        mtd.erase_block(0)
        after_erase = mtd.busy_time
        assert after_write == pytest.approx(start + mtd.timing.program_page)
        assert after_read == pytest.approx(after_write + mtd.timing.read_page)
        assert after_erase == pytest.approx(after_read + mtd.timing.erase_block)

    def test_copy_span_moves_data_and_counts(self, mtd):
        mtd.write_page(0, 0, lba=9, data=b"d")
        mtd.write_page(0, 2, lba=4, data=b"e")
        before = mtd.counters.snapshot()
        mtd.copy_span([0, 2], 1, 1)
        # The sources stay as they are: their block is erased next.
        assert mtd.flash.page_state(0, 0) == PAGE_VALID
        assert mtd.flash.page_state(1, 1) == PAGE_VALID
        assert mtd.read_page(1, 1) == (9, b"d")
        assert mtd.read_page(1, 2) == (4, b"e")
        assert mtd.counters.reads - before.reads == 2 + 2
        assert mtd.counters.programs - before.programs == 2

    @pytest.mark.parametrize("supersede", [False, True])
    @pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [-1, 64], ids=["negative", "past-the-end"])
    def test_copy_span_with_an_out_of_range_source(
        self, tiny_geometry, bad, at, supersede
    ):
        """The chip declines the span untouched; the MTD's per-page route
        then fails at the bad source exactly as a watched chip does.

        A negative index must be caught by a test of its own: a Python
        list wraps it to a page at the end of the chip.
        """
        assert tiny_geometry.total_pages == 64
        sources = [0, 5, 2]
        sources[at] = bad
        outcomes = []
        for per_page in (False, True):
            mtd = MtdDevice(NandFlash(tiny_geometry))
            mtd.program_span(0, 0, [10, 11, 12, 13])
            mtd.program_span(1, 0, [14, 15])
            mtd.write_page(15, 3, lba=99)  # the page a wrapped -1 would copy
            if per_page:
                mtd.flash._watched = lambda: True
            else:
                before = mtd.flash.snapshot_state()
                assert mtd.flash.copy_span(sources, 3, 0) is False
                assert mtd.flash.snapshot_state() == before
            with pytest.raises(AddressError) as caught:
                mtd.copy_span(sources, 3, 0, supersede=supersede)
            error = caught.value
            assert error.pages_done == at and error.carry is None
            outcomes.append((
                str(error), mtd.flash.snapshot_state(), mtd.busy_time,
            ))
        assert outcomes[0] == outcomes[1]

    def test_erase_listener_passthrough(self, mtd):
        seen = []
        mtd.add_erase_listener(seen.append)
        mtd.erase_block(2)
        assert seen == [2]

    def test_counters_and_erase_counts_views(self, mtd):
        mtd.write_page(0, 0, lba=1)
        mtd.erase_block(0)
        assert mtd.counters.programs == 1
        assert mtd.erase_counts[0] == 1


class TestTiming:
    def test_paper_erase_latency(self):
        # Section 4.2: block erase "about 1.5ms over a 1GB MLC x2".
        assert MLC2_TIMING.erase_block == pytest.approx(1.5e-3)

    def test_mlc_programs_slower_than_slc(self):
        assert MLC2_TIMING.program_page > SLC_TIMING.program_page

    def test_copy_page_time(self):
        model = TimingModel(read_page=1.0, program_page=2.0, erase_block=3.0)
        assert model.copy_page_time() == 3.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(read_page=-1.0, program_page=0.0, erase_block=0.0)

    def test_timing_for_cell_type(self):
        mlc = FlashGeometry(4, 4, 2048, 10, cell_type=CellType.MLC2)
        slc = FlashGeometry(4, 4, 2048, 10, cell_type=CellType.SLC)
        assert timing_for(mlc) is MLC2_TIMING
        assert timing_for(slc) is SLC_TIMING
