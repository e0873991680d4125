"""Small reusable utilities shared by every subsystem.

This package deliberately contains only dependency-free building blocks:

* :mod:`repro.util.bitarray` -- the compact bit array backing the BET.
* :mod:`repro.util.rng` -- deterministic random-number plumbing.
* :mod:`repro.util.tables` -- plain-text table rendering for reports.
"""

from repro.util.bitarray import BitArray
from repro.util.rng import make_rng, spawn_rng
from repro.util.tables import format_table

__all__ = [
    "BitArray",
    "make_rng",
    "spawn_rng",
    "format_table",
]
