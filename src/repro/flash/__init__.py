"""NAND flash substrate: geometry, chip simulator, timing, MTD layer.

This package models everything below the Flash Translation Layer in the
paper's system architecture (Figure 1): the raw NAND chip with its
page/block organization, wear accounting and out-place-update constraints
(:mod:`repro.flash.chip`), catalog geometries including the paper's 1 GB
MLC×2 part (:mod:`repro.flash.geometry`), datasheet timing
(:mod:`repro.flash.timing`), and the MTD primitive-operation layer
(:mod:`repro.flash.mtd`).
"""

from repro.flash.chip import (
    PAGE_FREE,
    PAGE_INVALID,
    PAGE_VALID,
    FirstFailure,
    NandFlash,
    OpCounters,
)
from repro.flash.errors import (
    AddressError,
    FlashError,
    OutOfSpaceError,
    ProgramError,
    TranslationError,
)
from repro.flash.geometry import (
    GIB,
    KIB,
    MIB,
    MLC2_1GB,
    MLC2_BENCH,
    MLC2_TINY,
    SECTOR_SIZE,
    CellType,
    FlashGeometry,
    mlc2,
    slc_large_block,
)
from repro.flash.mtd import MtdDevice
from repro.flash.timing import MLC2_TIMING, SLC_TIMING, TimingModel, timing_for

__all__ = [
    "AddressError",
    "CellType",
    "FirstFailure",
    "FlashError",
    "FlashGeometry",
    "GIB",
    "KIB",
    "MIB",
    "MLC2_1GB",
    "MLC2_BENCH",
    "MLC2_TIMING",
    "MLC2_TINY",
    "MtdDevice",
    "NandFlash",
    "OpCounters",
    "OutOfSpaceError",
    "PAGE_FREE",
    "PAGE_INVALID",
    "PAGE_VALID",
    "ProgramError",
    "SECTOR_SIZE",
    "SLC_TIMING",
    "TimingModel",
    "TranslationError",
    "mlc2",
    "slc_large_block",
    "timing_for",
]
