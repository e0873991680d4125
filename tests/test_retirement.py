"""Tests for grown-bad-block retirement (device end-of-life model).

A block leaves service only when a fault condemns it.  Here the faults
are wear-driven: a Weibull erase-failure hazard that reaches certainty at
the rated endurance, so a block near wear-out fails its bounded erase
retry and is retired.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import SWLConfig
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.flash.errors import OutOfSpaceError
from repro.flash.geometry import FlashGeometry
from repro.ftl.factory import build_stack


def worn_geometry():
    """Tiny chip with minuscule endurance so retirement happens fast."""
    return FlashGeometry(24, 8, 512, 30, name="retire-test")


def wearing_stack(driver="ftl", swl=None, *, store_data=False, seed=0):
    """A stack whose erases fail more often the more a block is worn."""
    plan = FaultPlan(seed=seed, erase_fail_prob=1.0, erase_weibull_shape=8.0)
    return build_stack(
        worn_geometry(), driver, swl, store_data=store_data,
        rng=random.Random(0), injector=FaultInjector(plan),
    )


class TestRetirementMechanics:
    def test_worn_blocks_leave_service(self):
        stack = wearing_stack()
        layer = stack.layer
        rng = random.Random(1)
        try:
            for _ in range(100_000):
                layer.write(rng.randrange(8))
        except OutOfSpaceError:
            pass
        assert layer.retired_blocks
        assert layer.retired_blocks == stack.flash.bad_blocks
        for block in layer.retired_blocks:
            assert not layer.allocator.contains(block)

    def test_retired_blocks_never_erased_again(self):
        stack = wearing_stack(seed=2)
        layer = stack.layer
        rng = random.Random(2)
        wear_at_retirement: dict[int, int] = {}
        try:
            for _ in range(100_000):
                layer.write(rng.randrange(8))
                for block in layer.retired_blocks:
                    wear_at_retirement.setdefault(
                        block, stack.flash.erase_counts[block]
                    )
        except OutOfSpaceError:
            pass
        assert wear_at_retirement
        for block, wear in wear_at_retirement.items():
            assert stack.flash.erase_counts[block] == wear

    def test_device_reaches_end_of_life(self):
        stack = wearing_stack(seed=3)
        layer = stack.layer
        rng = random.Random(3)
        with pytest.raises(OutOfSpaceError):
            for _ in range(10_000_000):
                layer.write(rng.randrange(8))
        # The chip lost real capacity before giving up.
        assert len(layer.retired_blocks) >= 1

    def test_data_intact_until_eol(self):
        stack = wearing_stack(store_data=True, seed=4)
        layer = stack.layer
        cold = {}
        for lpn in range(32, 64):
            payload = lpn.to_bytes(2, "little")
            layer.write(lpn, data=payload)
            cold[lpn] = payload
        rng = random.Random(4)
        try:
            for _ in range(10_000_000):
                layer.write(rng.randrange(8), data=b"hot!")
        except OutOfSpaceError:
            pass
        assert layer.retired_blocks
        for lpn, payload in cold.items():
            assert layer.read(lpn) == payload

    def test_nftl_retirement(self):
        stack = wearing_stack("nftl", seed=5)
        layer = stack.layer
        rng = random.Random(5)
        try:
            for _ in range(10_000_000):
                layer.write(rng.randrange(8))
        except OutOfSpaceError:
            pass
        assert layer.retired_blocks
        assert layer.stats.extra["retired"] == len(layer.retired_blocks)

    def test_disabled_by_default(self):
        """Wear-out alone retires nothing: the paper's chip keeps going."""
        stack = build_stack(worn_geometry(), "ftl")
        layer = stack.layer
        rng = random.Random(6)
        for _ in range(30_000):
            layer.write(rng.randrange(8))
        assert stack.flash.worn_blocks       # wear-out happened...
        assert not layer.retired_blocks      # ...but nothing was retired


class TestRetirementWithSWL:
    def test_swl_delays_first_retirement(self):
        """Static wear leveling postpones capacity loss — the usable-
        lifetime version of the paper's first-failure claim."""

        def writes_until_first_retirement(with_swl: bool) -> int:
            stack = wearing_stack(
                swl=SWLConfig(threshold=3, k=0) if with_swl else None
            )
            layer = stack.layer
            # Pin cold data on half the chip.
            for lpn in range(64, 128):
                layer.write(lpn)
            rng = random.Random(7)
            count = 0
            try:
                while not layer.retired_blocks and count < 2_000_000:
                    layer.write(rng.randrange(16))
                    count += 1
            except OutOfSpaceError:
                pass
            return count

        baseline = writes_until_first_retirement(False)
        leveled = writes_until_first_retirement(True)
        assert leveled > baseline

    def test_swl_survives_retirements(self):
        stack = wearing_stack("nftl", SWLConfig(threshold=3, k=0), seed=8)
        layer = stack.layer
        rng = random.Random(8)
        try:
            for _ in range(10_000_000):
                layer.write(rng.randrange(32))
        except OutOfSpaceError:
            pass
        assert layer.retired_blocks
        # The leveler kept functioning (no crash, BET consistent), and
        # every retired block's set stays flagged.
        leveler = stack.leveler
        assert leveler.bet.fcnt <= leveler.bet.size
        for block in layer.retired_blocks:
            assert leveler.bet.is_set(leveler.bet.flag_index(block))
