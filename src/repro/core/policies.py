"""Pluggable SW Leveler policies.

**Selection** — how SWL-Procedure picks the next cold block set.  The
paper uses a sequential cyclic scan from ``findex`` (Algorithm 1, steps
9-10) and argues it "is close to that in a random selection policy in
reality because cold data could virtually exist in any block".  We
provide both so the claim can be tested (ablation bench A).  *When* the
procedure runs is not a policy: the Cleaner calls SWL-BETUpdate on every
erase and the leveler then checks ``ecnt / fcnt >= T`` (Algorithms 1-2).

On top of that axis sits the **leveler registry**: a
:class:`LevelerSpec` names a complete wear-leveling *mechanism* — the
paper's BET-based SW Leveler or one of the challengers from
:mod:`repro.core.alternatives` — plus its knobs, and builds it against
any :class:`~repro.core.leveler.WearLevelingHost`.  The spec is the one
leveler config: a frozen, picklable record that rides everywhere a config
does (``build_stack``/``build_array``, ``ExperimentSpec``, the
checkpoint supervisor, the fault campaign), which is what lets the
policy-arena tournament drive every mechanism by name through the same
harnesses.  :data:`repro.core.config.SWLConfig` is this class under the
paper-protocol name.
"""

from __future__ import annotations

import functools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.core.bet import BlockErasingTable
from repro.util.rng import below

if TYPE_CHECKING:
    from repro.core.leveler import WearLeveler, WearLevelingHost


# ----------------------------------------------------------------------
# Selection policies (which zero-flag set to level next)
# ----------------------------------------------------------------------
class SelectionPolicy(ABC):
    """Chooses the next block set for static wear leveling."""

    name: str = "abstract"

    @abstractmethod
    def select(
        self, bet: BlockErasingTable, findex: int, rng: random.Random
    ) -> int | None:
        """Return the flag index to level next, or ``None`` if all are set.

        ``findex`` is the leveler's cyclic cursor position (the value left
        by the previous iteration).
        """


class SequentialSelection(SelectionPolicy):
    """The paper's policy: advance ``findex`` cyclically to the next 0 flag.

    Sequential scanning is cheap to implement on a controller (a single
    cursor) and, per Section 3.3, behaves like random selection because
    cold data can sit anywhere in the physical address space.
    """

    name = "sequential"

    def select(
        self, bet: BlockErasingTable, findex: int, rng: random.Random
    ) -> int | None:
        return bet.next_zero_flag(findex)


class RandomSelection(SelectionPolicy):
    """Ablation policy: pick a uniformly random zero flag.

    Costs O(size(BET)) per pick (it must enumerate the zero flags), which
    is why the paper prefers the sequential scan; behaviourally the two
    should match (bench ``bench_ablation_selection``).
    """

    name = "random"

    def select(
        self, bet: BlockErasingTable, findex: int, rng: random.Random
    ) -> int | None:
        zeros = bet.zero_flags()
        if not zeros:
            return None
        return zeros[below(rng, len(zeros))]


_SELECTION_POLICIES = {
    SequentialSelection.name: SequentialSelection,
    RandomSelection.name: RandomSelection,
}


def make_selection_policy(name: str) -> SelectionPolicy:
    """Instantiate a selection policy by name (``sequential`` / ``random``)."""
    try:
        return _SELECTION_POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown selection policy {name!r}; "
            f"choose from {sorted(_SELECTION_POLICIES)}"
        ) from None


# ----------------------------------------------------------------------
# The leveler registry: mechanisms behind one driver surface
# ----------------------------------------------------------------------
def check_knobs(**knobs: float) -> None:
    """Range-check numeric mechanism knobs, by name.

    The one statement of every knob's range, reached from a new
    :class:`LevelerSpec` and from each mechanism's constructor.  ``k``
    may be 0 and ``threshold`` fractional; every other knob is a positive
    whole number (the label would show a fraction the mechanism drops).
    """
    for name, value in knobs.items():
        if name != "threshold" and value % 1 != 0:
            raise ValueError(f"{name} must be a whole number, got {value}")
        if value < 0 or (value == 0 and name != "k"):
            bound = ">= 0" if name == "k" else "positive"
            raise ValueError(f"{name} must be {bound}, got {value}")


class _Kind(NamedTuple):
    """One registered mechanism, as :class:`LevelerSpec` needs it."""

    #: Numeric spec fields the mechanism reads (see :func:`check_knobs`).
    knobs: tuple[str, ...]
    label: Callable[["LevelerSpec"], str]
    build: Callable[
        ["LevelerSpec", int, "WearLevelingHost", random.Random | None],
        "WearLeveler",
    ]
    #: Instantiates the named policy a spec carries, which validates it.
    policy: Callable[["LevelerSpec"], object] = lambda spec: None


def _shared_erase_counts(host: "WearLevelingHost", num_blocks: int) -> list[int]:
    """The chip's live per-block erase-count list, shared not copied.

    Counter-based mechanisms read the chip's own array (4 bytes/block of
    controller RAM in a real device).  The checkpoint machinery restores
    chip counts in place, so the reference stays valid across restores.
    """
    counts = host.mtd.erase_counts
    if len(counts) != num_blocks:
        raise ValueError(
            f"host tracks {len(counts)} blocks, leveler expects {num_blocks}"
        )
    return counts


@functools.cache
def _registry() -> dict[str, _Kind]:
    """The per-kind table behind :class:`LevelerSpec`."""
    # Deferred: both modules import this one for the policy classes.
    from repro.core.alternatives import CacheAvoidLeveler, DualPoolLeveler, SoftWearLeveler
    from repro.core.leveler import SWLeveler

    return {
        "swl": _Kind(
            ("threshold", "k"),
            lambda spec: f"SWL+k={spec.k}+T={int(spec.threshold)}",
            lambda spec, num_blocks, host, rng: SWLeveler(
                num_blocks, host, threshold=spec.threshold, k=spec.k,
                selection=make_selection_policy(spec.selection), rng=rng,
            ),
            lambda spec: make_selection_policy(spec.selection),
        ),
        "dual-pool": _Kind(
            ("delta", "check_period", "batch"),
            lambda spec: f"DP+d={spec.delta}+p={spec.check_period}",
            lambda spec, num_blocks, host, rng: DualPoolLeveler(
                _shared_erase_counts(host, num_blocks), host,
                delta=int(spec.delta), check_period=int(spec.check_period),
                batch=int(spec.batch),
            ),
        ),
        "cache-avoid": _Kind(
            ("cache_pages",),
            lambda spec: f"CACHE+{spec.cache_pages}p",
            lambda spec, num_blocks, host, rng: CacheAvoidLeveler(
                cache_pages=int(spec.cache_pages),
                page_size=host.geometry.page_size,
            ),
        ),
        "softwear": _Kind(
            ("period_requests", "span_blocks"),
            lambda spec: f"SOFTWEAR+n={spec.period_requests}+s={spec.span_blocks}",
            lambda spec, num_blocks, host, rng: SoftWearLeveler(
                num_blocks, host, period_requests=int(spec.period_requests),
                span_blocks=int(spec.span_blocks),
            ),
        ),
    }


def leveler_kinds() -> list[str]:
    """Registered mechanism names accepted by :class:`LevelerSpec`."""
    return sorted(_registry())


@dataclass(frozen=True)
class LevelerSpec:
    """A wear-leveling mechanism, by name, with its knobs.

    The union of every registered mechanism's parameters lives here so the
    spec stays a flat, frozen, picklable record (sweeps enumerate it, the
    checkpoint supervisor fingerprints it, worker processes unpickle it);
    each builder reads only the fields its ``kind`` defines:

    ``"swl"``
        The paper's BET-based SW Leveler — ``threshold``, ``k``,
        and ``selection`` (``"sequential"``, the paper's, or ``"random"``).
    ``"dual-pool"``
        Ban-patent counter-based leveling — ``delta``, ``check_period``,
        ``batch``.
    ``"cache-avoid"``
        Boukhobza-style wear *avoidance*: an LRU write-back cache in
        controller RAM absorbs rewrites before they reach flash —
        ``cache_pages``.
    ``"softwear"``
        SoftWear-style software-only leveling: no erase counters at all,
        a cyclic scrubber rotates cold data by force-recycling the next
        block span every ``period_requests`` host requests —
        ``span_blocks``.

    ``enabled=False`` is the paper's baseline (plain FTL / NFTL) whatever
    the kind: nothing is built and no knob is validated.
    """

    kind: str = "swl"
    enabled: bool = True
    # --- "swl" (paper) knobs -----------------------------------------
    threshold: float = 100.0
    k: int = 0
    selection: str = "sequential"
    # --- "dual-pool" knobs -------------------------------------------
    delta: int = 32
    check_period: int = 64
    batch: int = 1
    # --- "cache-avoid" knobs -----------------------------------------
    cache_pages: int = 64
    # --- "softwear" knobs --------------------------------------------
    period_requests: int = 256
    span_blocks: int = 1

    def __post_init__(self) -> None:
        row = _registry().get(self.kind)
        if row is None:
            raise ValueError(
                f"unknown leveler kind {self.kind!r}; "
                f"choose from {leveler_kinds()}"
            )
        if self.enabled:
            # A spec that could not build is refused here, not in a
            # sweep worker that would retry it and quarantine the cell.
            check_knobs(**{name: getattr(self, name) for name in row.knobs})
            row.policy(self)

    def label(self) -> str:
        """Row label for tables, e.g. ``SWL+k=0+T=100`` in the paper's style."""
        if not self.enabled:
            return "baseline"
        return _registry()[self.kind].label(self)

    def build(
        self,
        num_blocks: int,
        host: "WearLevelingHost",
        *,
        rng: random.Random | None = None,
    ) -> WearLeveler | None:
        """Instantiate the named mechanism, or ``None`` when disabled.

        Every mechanism is a :class:`~repro.core.leveler.WearLeveler`,
        so the stack and the array drive any of them interchangeably.
        """
        if not self.enabled:
            return None
        return _registry()[self.kind].build(self, num_blocks, host, rng)
