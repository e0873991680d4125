"""Analytic models of paper Section 4 and text-mode figures.

:mod:`repro.analysis.memory` regenerates Table 1 (BET RAM requirements);
:mod:`repro.analysis.overhead` regenerates Tables 2-3 (worst-case extra
erases and live-page copyings); :mod:`repro.analysis.figures` renders
the terminal charts the reports and examples use.  Lifetime projection
lives in :mod:`repro.endurance`.
"""

from repro.analysis.figures import sparkline
from repro.analysis.memory import (
    bet_size_bytes,
    bet_size_for,
    mlc2_reduction,
    table1,
    table1_headers,
)
from repro.analysis.overhead import (
    TABLE2_CONFIGS,
    TABLE3_CONFIGS,
    TABLE3_PAGES_PER_BLOCK,
    WorstCaseConfig,
    table2,
    table3,
)

__all__ = [
    "TABLE2_CONFIGS",
    "TABLE3_CONFIGS",
    "TABLE3_PAGES_PER_BLOCK",
    "WorstCaseConfig",
    "bet_size_bytes",
    "bet_size_for",
    "mlc2_reduction",
    "sparkline",
    "table1",
    "table1_headers",
    "table2",
    "table3",
]
