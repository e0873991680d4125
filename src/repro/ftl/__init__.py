"""Flash Translation Layer drivers: FTL (page-level) and NFTL (block-level).

These are the two "popular implementation designs" of paper Section 2.2
that the SW Leveler plugs into: :class:`~repro.ftl.page_mapping.PageMappingFTL`
with a fine-grained RAM translation table, and :class:`~repro.ftl.nftl.NFTL`
with primary/replacement block chains.  Shared machinery lives in
:mod:`repro.ftl.base` (driver interface, stats), :mod:`repro.ftl.allocator`
(min-wear free pool = dynamic wear leveling), and :mod:`repro.ftl.cleaner`
(greedy cost-benefit victim selection with cyclic scanning, Section 5.1).
"""

from repro.ftl.allocator import BlockAllocator
from repro.ftl.base import (
    DEFAULT_OP_RATIO,
    GC_FREE_FRACTION,
    LayerStats,
    TranslationLayer,
)
from repro.ftl.cleaner import CyclicScanner
from repro.ftl.factory import (
    StorageBackend,
    StorageStack,
    build_stack,
    driver_names,
    make_layer,
)
from repro.ftl.nftl import NFTL, BlockChain
from repro.ftl.page_mapping import PageMappingFTL

__all__ = [
    "BlockAllocator",
    "BlockChain",
    "CyclicScanner",
    "DEFAULT_OP_RATIO",
    "GC_FREE_FRACTION",
    "LayerStats",
    "NFTL",
    "PageMappingFTL",
    "StorageBackend",
    "StorageStack",
    "TranslationLayer",
    "build_stack",
    "driver_names",
    "make_layer",
]
