"""Deterministic random-number plumbing and the stream's own samplers.

Every stochastic decision in the library — the random re-seeding of
``findex`` after a BET reset (Algorithm 1, step 6), the synthetic workload
generator, and the 10-minute segment resampler that derives the "virtually
unlimited" trace (paper Section 5.1) — draws from a ``random.Random``
instance created here, never from the global ``random`` module.  That makes
every simulation reproducible from a single integer seed.

Reproducibility contract
------------------------
Python guarantees, across versions, only the seeders and the sequence of
``random()`` ("Notes on Reproducibility" in the ``random`` docs); its
``choice``, ``randrange``, ``randint``, ``expovariate``, ``uniform`` and
``shuffle`` are pure-Python code that may change between releases, and
changed once already (3.2).  The library therefore calls only the C
primitives ``random()`` and ``getrandbits()`` of the Mersenne Twister
(plus seeding and ``getstate``/``setstate``) and draws through its own
samplers over them:

* :func:`below` — a uniform int in ``[0, n)``, rejection sampling on
  ``getrandbits(n.bit_length())``;
* :func:`exponential` — ``-log(1.0 - random()) / rate``;
* :func:`uniform` — ``a + (b - a) * random()``;
* :func:`shuffle` — Fisher-Yates from the top, one :func:`below` a swap.

These are the algorithms CPython 3.10-3.13 use for ``randrange``
(``choice``, ``randint``), ``expovariate``, ``uniform`` and ``shuffle``,
so every stream they produced is unchanged bit for bit; a stream is
what these functions yield, whatever a later ``random.py`` does.
``tests/test_tables_rng.py`` checks each sampler against the
``random.Random`` method it replaced, and that nothing under
``src/repro`` calls one of those methods.  Hot loops may inline
:func:`below` or :func:`exponential`; they say so where they do.
"""

from __future__ import annotations

import random
from math import log

#: Seed used by examples and benchmarks when the caller does not supply one.
DEFAULT_SEED = 20070604  # DAC 2007 opened on June 4, 2007.


def make_rng(seed: int | None = None) -> random.Random:
    """Create an isolated RNG.

    Parameters
    ----------
    seed:
        Any integer.  ``None`` selects :data:`DEFAULT_SEED` (not an
        OS-entropy seed) so that "I didn't pass a seed" still reproduces.
    """
    return random.Random(DEFAULT_SEED if seed is None else seed)


def rng_state_to_json(rng: random.Random) -> list:
    """Encode ``rng.getstate()`` as a JSON-friendly nested list.

    The Mersenne-Twister state is a ``(version, tuple-of-ints,
    gauss_next)`` triple — plain integers and an optional float — so a
    list round-trips it exactly.  Used by ``repro.ckpt`` to freeze every
    RNG stream into a checkpoint without pickling.
    """
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def rng_state_from_json(state: list) -> tuple:
    """Inverse of :func:`rng_state_to_json`, ready for ``rng.setstate``."""
    if len(state) != 3:
        raise ValueError(f"malformed RNG state: expected 3 fields, got {len(state)}")
    version, internal, gauss_next = state
    return (version, tuple(internal), gauss_next)


def spawn_rng(parent: random.Random, stream: str) -> random.Random:
    """Derive an independent child RNG from ``parent`` for ``stream``.

    Distinct stream names yield decorrelated child generators, so adding a
    new consumer of randomness does not perturb existing streams.  Used to
    give the workload generator, the segment resampler, and the SW Leveler
    their own streams from one experiment seed.
    """
    salt = parent.getrandbits(64)
    return random.Random(f"{salt}:{stream}")


# ----------------------------------------------------------------------
# The samplers: every draw of a stream goes through these
# ----------------------------------------------------------------------
def below(rng: random.Random, n: int) -> int:
    """A uniform integer in ``[0, n)``; ``n`` must be at least 1.

    Rejection sampling on ``n.bit_length()`` random bits: each try
    succeeds with probability at least one half, and the draw is exact
    for any ``n``, however large.
    """
    if n < 1:
        raise ValueError(f"below() needs n >= 1, got {n}")
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    draw = getrandbits(bits)
    while draw >= n:
        draw = getrandbits(bits)
    return draw


def exponential(rng: random.Random, rate: float) -> float:
    """An exponential draw of mean ``1 / rate`` (a Poisson gap).

    ``1.0 - random()`` lies in ``(0, 1]``, so the logarithm is finite.
    """
    return -log(1.0 - rng.random()) / rate


def uniform(rng: random.Random, a: float, b: float) -> float:
    """A uniform float between ``a`` and ``b``."""
    return a + (b - a) * rng.random()


def shuffle(rng: random.Random, items: list) -> None:
    """Shuffle ``items`` in place (Fisher-Yates, last position first).

    Swaps position ``i`` with ``below(rng, i + 1)``, which is inlined.
    """
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(items))):
        n = i + 1
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]
