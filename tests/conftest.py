"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.flash.geometry import FlashGeometry, CellType
from repro.flash.chip import NandFlash
from repro.flash.mtd import MtdDevice


@pytest.fixture
def tiny_geometry() -> FlashGeometry:
    """A chip small enough for exhaustive checks: 16 blocks x 4 pages."""
    return FlashGeometry(
        num_blocks=16,
        pages_per_block=4,
        page_size=512,
        endurance=20,
        cell_type=CellType.SLC,
        name="tiny",
    )


@pytest.fixture
def small_geometry() -> FlashGeometry:
    """A chip big enough to run translation layers: 32 blocks x 8 pages."""
    return FlashGeometry(
        num_blocks=32,
        pages_per_block=8,
        page_size=2048,
        endurance=50,
        cell_type=CellType.MLC2,
        name="small",
    )


@pytest.fixture
def chip(tiny_geometry: FlashGeometry) -> NandFlash:
    return NandFlash(tiny_geometry, store_data=True)


@pytest.fixture
def mtd(chip: NandFlash) -> MtdDevice:
    return MtdDevice(chip)


@pytest.fixture
def short_trace(monkeypatch: pytest.MonkeyPatch) -> None:
    """A 1/20-day base trace for CLI runs that must agree, not be long."""
    import repro.cli as cli

    one_day = cli._mobile_pc_trace
    monkeypatch.setattr(
        cli, "_mobile_pc_trace",
        lambda spec, args, days: one_day(spec, args, days / 20),
    )
