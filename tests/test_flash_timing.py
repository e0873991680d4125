"""Direct tests for :mod:`repro.flash.timing`.

The timing model is the foundation of every latency number the service
engine reports, so it gets dedicated coverage: validation, the derived
copy/lookup helpers, the datasheet constants, and the busy time the MTD
layer accumulates for service-time accounting.
"""

from __future__ import annotations

import pytest

from repro.flash.geometry import CellType, FlashGeometry
from repro.flash.mtd import MtdDevice
from repro.flash.timing import (
    MLC2_TIMING,
    SLC_TIMING,
    TimingModel,
    timing_for,
)


class TestTimingModel:
    @pytest.mark.parametrize("field", ["read_page", "program_page", "erase_block"])
    def test_negative_latency_rejected(self, field):
        values = {"read_page": 1.0, "program_page": 2.0, "erase_block": 3.0}
        values[field] = -1e-9
        with pytest.raises(ValueError, match=field):
            TimingModel(**values)

    def test_zero_latency_allowed(self):
        model = TimingModel(read_page=0.0, program_page=0.0, erase_block=0.0)
        assert model.copy_page_time() == 0.0

    def test_copy_page_time_is_read_plus_program(self):
        model = TimingModel(read_page=1.0, program_page=2.0, erase_block=7.0)
        assert model.copy_page_time() == pytest.approx(3.0)

    def test_time_for_lookup(self):
        model = TimingModel(read_page=1.0, program_page=2.0, erase_block=3.0)
        assert model.time_for("read") == 1.0
        assert model.time_for("program") == 2.0
        assert model.time_for("erase") == 3.0

    def test_time_for_unknown_op(self):
        with pytest.raises(ValueError, match="unknown operation"):
            SLC_TIMING.time_for("copyback")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SLC_TIMING.read_page = 1.0  # type: ignore[misc]


class TestDatasheetConstants:
    def test_paper_erase_latency(self):
        # Section 4.2: "about 1.5ms over a 1GB MLC x2".
        assert MLC2_TIMING.erase_block == pytest.approx(1.5e-3)
        assert SLC_TIMING.erase_block == pytest.approx(1.5e-3)

    def test_mlc_slower_than_slc(self):
        assert MLC2_TIMING.program_page > SLC_TIMING.program_page
        assert MLC2_TIMING.read_page > SLC_TIMING.read_page

    def test_timing_for_selects_by_cell_type(self):
        mlc = FlashGeometry(4, 4, 2048, 10, cell_type=CellType.MLC2)
        slc = FlashGeometry(4, 4, 2048, 10, cell_type=CellType.SLC)
        assert timing_for(mlc) is MLC2_TIMING
        assert timing_for(slc) is SLC_TIMING


class TestMtdServiceTime:
    def test_busy_time_is_sum_of_op_times(self, mtd):
        mtd.write_page(0, 0, lba=1)
        mtd.read_page(0, 0)
        mtd.erase_block(0)
        expected = (
            mtd.timing.program_page
            + mtd.timing.read_page
            + mtd.timing.erase_block
        )
        assert mtd.busy_time == pytest.approx(expected)
