"""Tests for the fault plan and the seeded fault injector."""

from __future__ import annotations

import pytest

from repro.fault.injector import READ_RETRY_LIMIT, FaultInjector, FaultStats
from repro.fault.plan import FaultPlan
from repro.flash.chip import PAGE_INVALID, PAGE_VALID, NandFlash
from repro.flash.errors import (
    PowerLossError,
    ProgramFaultError,
    TransientEraseError,
    UncorrectableReadError,
)


class TestFaultPlan:
    def test_default_plan_is_inert(self):
        injector = FaultInjector(FaultPlan(), page_bits=4096, endurance=100)
        for op in range(500):
            injector.on_erase(op % 8, wear=op)
            injector.on_program(op % 8, op % 4)
            assert injector.on_read(op % 8, op % 4) == 0
        assert injector.stats.as_dict() == {**FaultStats().as_dict(), "ops": 1500}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"erase_fail_prob": 1.5},
            {"program_fail_prob": -0.1},
            {"read_ber": 2.0},
            {"erase_weibull_shape": 0.0},
            {"power_loss_at": (0,)},
            {"read_ber": -1e-9},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_loss_schedule_is_sorted_and_deduplicated(self):
        plan = FaultPlan(power_loss_at=(30, 10, 30, 20))
        assert plan.power_loss_at == (10, 20, 30)

    def test_flat_erase_hazard(self):
        plan = FaultPlan(erase_fail_prob=0.25)
        assert plan.erase_hazard(0, 100) == 0.25
        assert plan.erase_hazard(99, 100) == 0.25

    def test_weibull_hazard_grows_with_wear(self):
        plan = FaultPlan(erase_fail_prob=0.5, erase_weibull_shape=2.0)
        fresh = plan.erase_hazard(1, 100)
        worn = plan.erase_hazard(90, 100)
        assert fresh < worn <= 0.5
        # At or beyond rated endurance the hazard hits the ceiling.
        assert plan.erase_hazard(150, 100) == 0.5


class TestDeterminism:
    def _drive(self, seed: int) -> list[str]:
        injector = FaultInjector(
            FaultPlan(seed=seed, erase_fail_prob=0.3, program_fail_prob=0.1),
            page_bits=8 * 512,
            endurance=100,
        )
        events = []
        for i in range(200):
            try:
                injector.on_program(i % 8, i % 4)
            except ProgramFaultError:
                events.append(f"p{i}")
            try:
                injector.on_erase(i % 8, wear=i)
            except TransientEraseError:
                events.append(f"e{i}")
        return events

    def test_same_seed_same_faults(self):
        assert self._drive(42) == self._drive(42)

    def test_different_seed_different_faults(self):
        assert self._drive(1) != self._drive(2)


class TestPowerLossScheduling:
    def test_loss_fires_at_scheduled_ordinal(self):
        injector = FaultInjector(FaultPlan(power_loss_at=(5,)))
        for _ in range(4):
            injector.on_read(0, 0)
        with pytest.raises(PowerLossError) as info:
            injector.on_read(0, 0)
        assert info.value.op_ordinal == 5
        assert injector.stats.power_losses == 1
        # The schedule is spent; later operations run normally.
        injector.on_read(0, 0)

    def test_cancel_power_loss_drops_pending_points(self):
        injector = FaultInjector(FaultPlan(power_loss_at=(3, 6)))
        injector.cancel_power_loss()
        for _ in range(10):
            injector.on_read(0, 0)
        assert injector.stats.power_losses == 0


class TestReadPath:
    def test_clean_reads_need_no_retries(self):
        injector = FaultInjector(FaultPlan(read_ber=0.0), page_bits=4096)
        assert injector.on_read(0, 0) == 0

    def test_hopeless_ber_becomes_uncorrectable(self):
        # With BER 1.0 every bit is wrong; ECC can never keep up.
        injector = FaultInjector(FaultPlan(read_ber=1.0), page_bits=4096)
        with pytest.raises(UncorrectableReadError):
            injector.on_read(1, 2)
        assert injector.stats.reads_uncorrectable == 1
        assert injector.stats.read_retries == READ_RETRY_LIMIT


class TestChipIntegration:
    def _chip(self, plan: FaultPlan, small_geometry) -> NandFlash:
        chip = NandFlash(small_geometry, store_data=True)
        chip.attach_injector(FaultInjector(plan))
        return chip

    def test_failed_erase_leaves_block_untouched(self, small_geometry):
        chip = self._chip(FaultPlan(erase_fail_prob=1.0), small_geometry)
        chip.program(0, 0, lba=7, data=b"x")
        with pytest.raises(TransientEraseError):
            chip.erase(0)
        assert chip.page_state(0, 0) == PAGE_VALID
        assert chip.erase_counts[0] == 0

    def test_program_fault_leaves_page_invalid_and_block_sticky(
        self, small_geometry
    ):
        chip = self._chip(FaultPlan(program_fail_prob=1.0), small_geometry)
        with pytest.raises(ProgramFaultError):
            chip.program(2, 0, lba=1)
        assert chip.page_state(2, 0) == PAGE_INVALID
        # The block is grown bad: the next program on it fails too.
        with pytest.raises(ProgramFaultError):
            chip.program(2, 1, lba=1)
        assert 2 in chip.injector.bad_program_blocks

    def test_power_loss_tears_the_inflight_program(self, small_geometry):
        chip = self._chip(FaultPlan(power_loss_at=(1,)), small_geometry)
        with pytest.raises(PowerLossError):
            chip.program(0, 0, lba=3, data=b"y")
        assert chip.page_state(0, 0) == PAGE_INVALID
        assert chip.injector.stats.torn_pages == 1
