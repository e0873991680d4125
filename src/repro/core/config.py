"""The paper's SW Leveler configuration sweep.

The leveler config itself is :class:`~repro.core.policies.LevelerSpec`;
``SWLConfig`` is the same class under the name the paper-protocol code
uses (its defaults are the paper's mechanism: ``kind="swl"`` with the
unevenness threshold ``T`` of Section 3.3 and the BET resolution
exponent ``k`` of Section 3.2).  This module adds the constants behind
the Section 5 sweeps.
"""

from __future__ import annotations

from repro.core.policies import LevelerSpec

#: The sweeps of paper Section 5 (Figures 5-7, Table 4).
PAPER_THRESHOLDS = (100, 400, 700, 1000)
PAPER_K_VALUES = (0, 1, 2, 3)

SWLConfig = LevelerSpec

#: Baseline (no static wear leveling) configuration.
DISABLED = SWLConfig(enabled=False)

