"""Tests for the storage-stack factory and the TranslationLayer base."""

from __future__ import annotations

import random

import pytest

from repro.core.config import DISABLED, SWLConfig
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.flash.errors import PowerLossError
from repro.flash.chip import NandFlash
from repro.flash.geometry import CellType, FlashGeometry
from repro.ftl.factory import build_stack, driver_names, make_layer
from repro.ftl.nftl import NFTL
from repro.ftl.page_mapping import PageMappingFTL
from repro.flash.mtd import MtdDevice


class TestFactory:
    def test_driver_names(self):
        assert driver_names() == ["ftl", "nftl"]

    def test_make_layer_by_name(self, small_geometry):
        mtd = MtdDevice(NandFlash(small_geometry))
        assert isinstance(make_layer("ftl", mtd), PageMappingFTL)
        mtd = MtdDevice(NandFlash(small_geometry))
        assert isinstance(make_layer("NFTL", mtd), NFTL)

    def test_unknown_layer(self, small_geometry):
        with pytest.raises(ValueError, match="unknown translation layer"):
            make_layer("ssd", MtdDevice(NandFlash(small_geometry)))

    def test_build_stack_without_swl(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        assert stack.leveler is None
        assert stack.name == "FTL"

    def test_build_stack_with_disabled_swl(self, small_geometry):
        stack = build_stack(small_geometry, "ftl", DISABLED)
        assert stack.leveler is None

    def test_build_stack_with_swl(self, small_geometry):
        stack = build_stack(small_geometry, "nftl", SWLConfig(threshold=10, k=1))
        assert stack.leveler is not None
        assert stack.leveler.bet.k == 1
        assert stack.name == "NFTL+SWL+k=1+T=10"

    def test_swl_hook_sees_all_erases(self, small_geometry):
        stack = build_stack(small_geometry, "ftl", SWLConfig(threshold=10_000))
        import random

        rng = random.Random(1)
        for _ in range(1500):
            stack.layer.write(rng.randrange(16))
        assert stack.leveler.bet.ecnt == stack.flash.total_erases()

    def test_store_data_passthrough(self, small_geometry):
        stack = build_stack(small_geometry, "ftl", store_data=True)
        stack.layer.write(0, data=b"z")
        assert stack.layer.read(0) == b"z"


class TestPagesDoneIsHostPages:
    def test_nftl_power_loss_inside_a_fold_reports_no_device_pages(self):
        """A power loss that ends a one-page batch completed zero host pages.

        An NFTL fold copies a span, and the MTD leaves that span's
        *device*-page count on the exception; the per-page loop used to
        add its own count to it, so ``RequestCore.pages_written`` counted
        up to seven pages for a write of one.
        """
        geometry = FlashGeometry(
            num_blocks=16, pages_per_block=8, page_size=2048,
            endurance=10**6, cell_type=CellType.MLC2, name="fold",
        )
        for at in range(50, 1201, 7):
            plan = FaultPlan(seed=1, power_loss_at=(at,))
            stack = build_stack(geometry, "nftl", injector=FaultInjector(plan))
            rng = random.Random(at)
            with pytest.raises(PowerLossError) as caught:
                while True:
                    stack.write_pages((rng.randrange(stack.num_logical_pages),))
            assert caught.value.pages_done == 0, f"power loss at op {at}"


class TestTranslationLayerBase:
    def test_op_ratio_validation(self, small_geometry):
        with pytest.raises(ValueError, match="op_ratio"):
            build_stack(small_geometry, "ftl", op_ratio=0.0)
        with pytest.raises(ValueError, match="op_ratio"):
            build_stack(small_geometry, "ftl", op_ratio=1.0)

    def test_reserve_floor_exceeds_tiny_chip(self):
        from repro.flash.geometry import FlashGeometry

        cramped = FlashGeometry(4, 4, 512, 10)
        with pytest.raises(ValueError, match="no logical space"):
            build_stack(cramped, "ftl")

    def test_paper_gc_trigger_at_scale(self):
        # The paper's 0.2% on the 4,096-block chip means 8 free blocks.
        from repro.flash.geometry import MLC2_1GB

        stack = build_stack(MLC2_1GB, "nftl")
        assert stack.layer.gc_free_blocks == 8

    def test_double_leveler_attach_rejected(self, small_geometry):
        stack = build_stack(small_geometry, "ftl", SWLConfig(threshold=10))
        with pytest.raises(RuntimeError, match="already"):
            stack.layer.attach_leveler(stack.leveler)

    def test_utilization(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        assert stack.layer.utilization() == 0.0
        stack.layer.write(0)
        assert stack.layer.utilization() > 0.0

    def test_swl_cost_probe_shape(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        erases, copies = stack.layer.swl_cost_probe()
        assert erases == 0 and copies == 0

    def test_repr(self, small_geometry):
        stack = build_stack(small_geometry, "ftl")
        assert "PageMappingFTL" in repr(stack.layer)
