"""NAND flash geometries and catalog parts.

Paper Section 1 fixes the three NAND organizations under discussion:

* small-block SLC — 512 B pages, 32 pages per block;
* large-block SLC — 2 KB pages, 64 pages per block;
* MLC×2 — 2 KB pages, 128 pages per block (same as large-block SLC except
  for the page count), 10,000-cycle endurance versus SLC's 100,000.

Section 5.1 evaluates a 1 GB MLC×2 part with 2,097,152 512-byte LBAs.  This
module encodes those organizations as an immutable :class:`FlashGeometry`
value plus a catalog of ready-made parts, including proportionally scaled
variants used by the simulation benchmarks (see DESIGN.md, Substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

SECTOR_SIZE = 512  # bytes; the LBA unit used by the paper's trace.

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


class CellType(Enum):
    """NAND cell technology; determines endurance and timing defaults."""

    SLC = "slc"
    MLC2 = "mlc2"


@dataclass(frozen=True)
class FlashGeometry:
    """Immutable description of a NAND chip's organization.

    Parameters
    ----------
    num_blocks:
        Number of erase blocks on the chip.
    pages_per_block:
        Pages per erase block (32 for small-block SLC, 64 for large-block
        SLC, 128 for MLC×2).
    page_size:
        User-data bytes per page (512 or 2048 in the paper).
    endurance:
        Rated program/erase cycles per block (100,000 SLC; 10,000 MLC×2).
    cell_type:
        :class:`CellType`; informs timing defaults and catalog naming.
    name:
        Human-readable part name for reports.
    """

    num_blocks: int
    pages_per_block: int
    page_size: int
    endurance: int
    cell_type: CellType = CellType.SLC
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.num_blocks <= 0:
            raise ValueError(f"num_blocks must be positive, got {self.num_blocks}")
        if self.pages_per_block <= 0:
            raise ValueError(
                f"pages_per_block must be positive, got {self.pages_per_block}"
            )
        if self.page_size <= 0 or self.page_size % SECTOR_SIZE:
            raise ValueError(
                f"page_size must be a positive multiple of {SECTOR_SIZE}, "
                f"got {self.page_size}"
            )
        if self.endurance <= 0:
            raise ValueError(f"endurance must be positive, got {self.endurance}")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        """Total number of pages on the chip."""
        return self.num_blocks * self.pages_per_block

    @property
    def block_size(self) -> int:
        """Bytes of user data per erase block."""
        return self.pages_per_block * self.page_size

    @property
    def capacity_bytes(self) -> int:
        """Total user-data capacity in bytes."""
        return self.num_blocks * self.block_size

    @property
    def sectors_per_page(self) -> int:
        """512-byte LBAs stored per page (LBA-to-logical-page conversion)."""
        return self.page_size // SECTOR_SIZE

    @property
    def total_sectors(self) -> int:
        """Total 512-byte sectors (the paper's LBA count: 2,097,152 at 1 GB)."""
        return self.capacity_bytes // SECTOR_SIZE

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def page_index(self, block: int, page: int) -> int:
        """Flatten a (block, page) address to a chip-wide page index."""
        return block * self.pages_per_block + page

    def page_address(self, index: int) -> tuple[int, int]:
        """Inverse of :meth:`page_index`."""
        return divmod(index, self.pages_per_block)

    def contains_block(self, block: int) -> bool:
        return 0 <= block < self.num_blocks

    def contains_page(self, block: int, page: int) -> bool:
        return self.contains_block(block) and 0 <= page < self.pages_per_block

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def scaled(self, *, num_blocks: int, endurance: int | None = None,
               name: str | None = None) -> "FlashGeometry":
        """A smaller (or larger) chip with the same block organization.

        Used to run the paper's experiments at laptop scale while keeping
        pages-per-block, page size, and all policy parameters identical
        (see DESIGN.md).  ``endurance`` may be scaled down alongside so that
        wear-out remains reachable within a short trace.
        """
        return replace(
            self,
            num_blocks=num_blocks,
            endurance=self.endurance if endurance is None else endurance,
            name=name or f"{self.name}-scaled-{num_blocks}b",
        )


def _blocks_for(capacity_bytes: int, pages_per_block: int, page_size: int) -> int:
    block_size = pages_per_block * page_size
    if capacity_bytes % block_size:
        raise ValueError(
            f"capacity {capacity_bytes} is not a whole number of "
            f"{block_size}-byte blocks"
        )
    return capacity_bytes // block_size


def slc_large_block(capacity_bytes: int, *, name: str | None = None) -> FlashGeometry:
    """Large-block SLC: 2 KB pages, 64 pages/block, 100k endurance."""
    return FlashGeometry(
        num_blocks=_blocks_for(capacity_bytes, 64, 2048),
        pages_per_block=64,
        page_size=2048,
        endurance=100_000,
        cell_type=CellType.SLC,
        name=name or f"slc-large-{capacity_bytes // MIB}MB",
    )


def mlc2(capacity_bytes: int, *, name: str | None = None) -> FlashGeometry:
    """MLC×2: 2 KB pages, 128 pages/block, 10k endurance (paper Section 5.1)."""
    return FlashGeometry(
        num_blocks=_blocks_for(capacity_bytes, 128, 2048),
        pages_per_block=128,
        page_size=2048,
        endurance=10_000,
        cell_type=CellType.MLC2,
        name=name or f"mlc2-{capacity_bytes // MIB}MB",
    )


#: The exact part evaluated in paper Section 5.1: 1 GB MLC×2, 4,096 blocks,
#: 128 pages/block, 2 KB pages, 2,097,152 512-byte LBAs.
MLC2_1GB = mlc2(1 * GIB, name="mlc2-1GB")

#: The SLC sizes of paper Table 1 (BET memory requirements).
TABLE1_SLC_SIZES = (128 * MIB, 256 * MIB, 512 * MIB, 1 * GIB, 2 * GIB, 4 * GIB)

#: Scaled MLC×2 part for trace-driven benchmarks: identical organization
#: (128 pages/block, 2 KB pages) but 512 blocks and 1/50 the endurance so a
#: first-failure run completes in seconds instead of hours.
MLC2_BENCH = mlc2(128 * MIB, name="mlc2-bench").scaled(
    num_blocks=512, endurance=200, name="mlc2-bench-512b"
)

#: Even smaller part for unit tests.
MLC2_TINY = FlashGeometry(
    num_blocks=32,
    pages_per_block=8,
    page_size=2048,
    endurance=50,
    cell_type=CellType.MLC2,
    name="mlc2-tiny",
)
