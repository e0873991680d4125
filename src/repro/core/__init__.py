"""The paper's primary contribution: the static wear leveling mechanism.

* :mod:`repro.core.bet` — the Block Erasing Table (Section 3.2) and its
  dual-buffer persistent store.
* :mod:`repro.core.leveler` — the ``WearLeveler`` base class (the driver
  boundary every mechanism inherits) and the SW Leveler running
  SWL-Procedure and SWL-BETUpdate (Section 3.3, Algorithms 1-2).
* :mod:`repro.core.policies` — block-set selection policies,
  plus the :class:`LevelerSpec` mechanism registry behind the arena.
* :mod:`repro.core.alternatives` — challenger mechanisms on the same
  base (dual-pool, cache-based avoidance, software-only scrubbing).
* :mod:`repro.core.config` — declarative configuration and the paper's
  (k, T) sweep.
"""

from repro.core.alternatives import (
    CacheAvoidLeveler,
    CacheAvoidStats,
    DualPoolLeveler,
    DualPoolStats,
    SoftWearLeveler,
    SoftWearStats,
)
from repro.core.bet import BetStore, BlockErasingTable
from repro.core.config import (
    DISABLED,
    PAPER_K_VALUES,
    PAPER_THRESHOLDS,
    SWLConfig,
)
from repro.core.leveler import (
    SWLeveler,
    SWLStats,
    WearLeveler,
    WearLevelingHost,
)
from repro.core.policies import (
    LevelerSpec,
    RandomSelection,
    SelectionPolicy,
    SequentialSelection,
    leveler_kinds,
    make_selection_policy,
)

__all__ = [
    "BetStore",
    "BlockErasingTable",
    "CacheAvoidLeveler",
    "CacheAvoidStats",
    "DISABLED",
    "DualPoolLeveler",
    "DualPoolStats",
    "LevelerSpec",
    "PAPER_K_VALUES",
    "PAPER_THRESHOLDS",
    "RandomSelection",
    "SWLConfig",
    "SWLStats",
    "SWLeveler",
    "SelectionPolicy",
    "SequentialSelection",
    "SoftWearLeveler",
    "SoftWearStats",
    "WearLeveler",
    "WearLevelingHost",
    "leveler_kinds",
    "make_selection_policy",
]
