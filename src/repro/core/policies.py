"""Pluggable SW Leveler policies.

Two policy axes from the paper's Section 3:

* **Selection** — how SWL-Procedure picks the next cold block set.  The
  paper uses a sequential cyclic scan from ``findex`` (Algorithm 1, steps
  9-10) and argues it "is close to that in a random selection policy in
  reality because cold data could virtually exist in any block".  We
  provide both so the claim can be tested (ablation bench A).

* **Trigger** — when SWL-Procedure is invoked.  Section 3.1: "a thread or
  a procedure triggered by a timer or the Allocator/Cleaner based on some
  preset conditions".  The default checks the unevenness level after every
  erase (the Cleaner-triggered variant); alternatives check every N
  requests or on a simulated-time period.

On top of the two axes sits the **leveler registry**: a
:class:`LevelerSpec` names a complete wear-leveling *mechanism* — the
paper's BET-based SW Leveler or one of the challengers from
:mod:`repro.core.alternatives` — plus its knobs, and builds it against
any :class:`~repro.core.leveler.WearLevelingHost`.  The spec is the one
leveler config: a frozen, picklable record that rides everywhere a config
does (``build_stack``/``build_backend``, ``ExperimentSpec``, the
checkpoint supervisor, the fault campaign), which is what lets the
policy-arena tournament drive every mechanism by name through the same
harnesses.  :data:`repro.core.config.SWLConfig` is this class under the
paper-protocol name.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.bet import BlockErasingTable

if TYPE_CHECKING:
    from repro.core.leveler import WearLevelingHost


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
        return rng.choice(zeros)


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
# Trigger policies (when to evaluate the unevenness level)
# ----------------------------------------------------------------------
class TriggerPolicy(ABC):
    """Decides when the leveler should evaluate ``ecnt/fcnt >= T``."""

    name: str = "abstract"

    @abstractmethod
    def should_check(self, *, erases: int, requests: int, now: float) -> bool:
        """``True`` when SWL-Procedure should be considered right now.

        Parameters are cumulative counters/clock maintained by the caller:
        total erases seen, total host requests served, simulated time.
        """

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt): a trigger's internal cursor must
    # survive a checkpoint/restore cycle or the resumed run's trigger
    # grid diverges from the uninterrupted one.  Stateless triggers
    # inherit the empty default.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """JSON-friendly internal state (empty for stateless triggers)."""
        return {}

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`; rejects config mismatches."""


class OnEraseTrigger(TriggerPolicy):
    """Check after every block erase (the Cleaner-triggered variant).

    This is the reference behaviour: SWL-BETUpdate runs on each erase and
    the unevenness level can only change when ``ecnt`` or ``fcnt`` does.
    """

    name = "on-erase"

    def should_check(self, *, erases: int, requests: int, now: float) -> bool:
        return True


class EveryNRequestsTrigger(TriggerPolicy):
    """Check once every ``n`` host requests (the Allocator-driven variant)."""

    name = "every-n-requests"

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self._last_bucket = -1

    def should_check(self, *, erases: int, requests: int, now: float) -> bool:
        bucket = requests // self.n
        if bucket != self._last_bucket:
            self._last_bucket = bucket
            return True
        return False

    def snapshot_state(self) -> dict[str, object]:
        return {"n": self.n, "last_bucket": self._last_bucket}

    def restore_state(self, state: dict[str, object]) -> None:
        if state["n"] != self.n:
            raise ValueError(
                f"trigger snapshot n={state['n']} does not match n={self.n}"
            )
        self._last_bucket = int(state["last_bucket"])  # type: ignore[arg-type]


class PeriodicTrigger(TriggerPolicy):
    """Check once every ``period`` seconds of simulated time (timer thread).

    The check fires on a *fixed* grid anchored at t = 0: a check observed
    late (the clock only advances at request edges, so arrival jitter is
    the norm) still schedules the next one at the next grid point, not at
    ``now + period`` — the latter would let every late arrival push the
    whole timer grid, permanently drifting the check rate below
    ``1/period``.
    """

    name = "periodic"

    def __init__(self, period: float) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period
        self._next_check = 0.0

    def should_check(self, *, erases: int, requests: int, now: float) -> bool:
        if now < self._next_check:
            return False
        grid = self._next_check
        while grid <= now:
            grid += self.period
        self._next_check = grid
        return True

    def snapshot_state(self) -> dict[str, object]:
        return {"period": self.period, "next_check": self._next_check}

    def restore_state(self, state: dict[str, object]) -> None:
        if state["period"] != self.period:
            raise ValueError(
                f"trigger snapshot period={state['period']} does not match "
                f"period={self.period}"
            )
        self._next_check = float(state["next_check"])  # type: ignore[arg-type]


_TRIGGER_POLICIES = {
    OnEraseTrigger.name: OnEraseTrigger,
    EveryNRequestsTrigger.name: EveryNRequestsTrigger,
    PeriodicTrigger.name: PeriodicTrigger,
}


def make_trigger_policy(name: str, param: float = 0.0) -> TriggerPolicy:
    """Instantiate a trigger policy by name.

    ``param`` is ``n`` for ``every-n-requests`` and the period in
    simulated seconds for ``periodic``; ``on-erase`` ignores it.
    """
    if name == OnEraseTrigger.name:
        return OnEraseTrigger()
    if name == EveryNRequestsTrigger.name:
        return EveryNRequestsTrigger(int(param))
    if name == PeriodicTrigger.name:
        return PeriodicTrigger(param)
    raise ValueError(
        f"unknown trigger policy {name!r}; "
        f"choose from {sorted(_TRIGGER_POLICIES)}"
    )


# ----------------------------------------------------------------------
# The leveler registry: mechanisms behind one driver surface
# ----------------------------------------------------------------------
#: Builder signature: ``(spec, num_blocks, host, rng) -> leveler``.
_LevelerBuilder = Callable[
    ["LevelerSpec", int, "WearLevelingHost", random.Random | None], object
]


def _build_swl(
    spec: "LevelerSpec",
    num_blocks: int,
    host: "WearLevelingHost",
    rng: random.Random | None,
) -> object:
    # Deferred import: repro.core.leveler imports this module.
    from repro.core.leveler import SWLeveler

    return SWLeveler(
        num_blocks,
        host,
        threshold=spec.threshold,
        k=spec.k,
        selection=make_selection_policy(spec.selection),
        trigger=make_trigger_policy(spec.trigger, spec.trigger_param),
        rng=rng,
    )


def _build_dual_pool(
    spec: "LevelerSpec",
    num_blocks: int,
    host: "WearLevelingHost",
    rng: random.Random | None,
) -> object:
    from repro.core.alternatives import DualPoolLeveler, host_erase_counts

    return DualPoolLeveler(
        host_erase_counts(host, num_blocks),
        host,
        delta=int(spec.delta),
        check_period=int(spec.check_period),
        batch=int(spec.batch),
    )


def _build_cache_avoid(
    spec: "LevelerSpec",
    num_blocks: int,
    host: "WearLevelingHost",
    rng: random.Random | None,
) -> object:
    from repro.core.alternatives import CacheAvoidLeveler

    geometry = getattr(host, "geometry", None)
    page_size = getattr(geometry, "page_size", 2048)
    return CacheAvoidLeveler(
        cache_pages=int(spec.cache_pages),
        page_size=int(page_size),
    )


def _build_softwear(
    spec: "LevelerSpec",
    num_blocks: int,
    host: "WearLevelingHost",
    rng: random.Random | None,
) -> object:
    from repro.core.alternatives import SoftWearLeveler

    return SoftWearLeveler(
        num_blocks,
        host,
        period_requests=int(spec.period_requests),
        span_blocks=int(spec.span_blocks),
    )


_LEVELER_KINDS: dict[str, _LevelerBuilder] = {
    "swl": _build_swl,
    "dual-pool": _build_dual_pool,
    "cache-avoid": _build_cache_avoid,
    "softwear": _build_softwear,
}


def leveler_kinds() -> list[str]:
    """Registered mechanism names accepted by :class:`LevelerSpec`."""
    return sorted(_LEVELER_KINDS)


@dataclass(frozen=True)
class LevelerSpec:
    """A wear-leveling mechanism, by name, with its knobs.

    The union of every registered mechanism's parameters lives here so the
    spec stays a flat, frozen, picklable record (sweeps enumerate it, the
    checkpoint supervisor fingerprints it, worker processes unpickle it);
    each builder reads only the fields its ``kind`` defines:

    ``"swl"``
        The paper's BET-based SW Leveler — ``threshold``, ``k``,
        ``selection`` (``"sequential"``, the paper's, or ``"random"``),
        ``trigger`` (``"on-erase"``, ``"every-n-requests"`` or
        ``"periodic"``) and ``trigger_param`` (``n`` for the request
        trigger, the period in simulated seconds for the timer).
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
    trigger: str = "on-erase"
    trigger_param: float = 0.0
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
        if self.kind not in _LEVELER_KINDS:
            raise ValueError(
                f"unknown leveler kind {self.kind!r}; "
                f"choose from {leveler_kinds()}"
            )
        if not self.enabled:
            return
        if self.kind == "swl":
            if self.threshold <= 0:
                raise ValueError(
                    f"threshold must be positive, got {self.threshold}"
                )
            if self.k < 0:
                raise ValueError(f"k must be >= 0, got {self.k}")
        elif self.kind == "dual-pool":
            for field_name in ("delta", "check_period", "batch"):
                if getattr(self, field_name) <= 0:
                    raise ValueError(
                        f"{field_name} must be positive, "
                        f"got {getattr(self, field_name)}"
                    )
        elif self.kind == "cache-avoid":
            if self.cache_pages <= 0:
                raise ValueError(
                    f"cache_pages must be positive, got {self.cache_pages}"
                )
        elif self.kind == "softwear":
            if self.period_requests <= 0:
                raise ValueError(
                    f"period_requests must be positive, "
                    f"got {self.period_requests}"
                )
            if self.span_blocks <= 0:
                raise ValueError(
                    f"span_blocks must be positive, got {self.span_blocks}"
                )

    def label(self) -> str:
        """Row label for tables, e.g. ``SWL+k=0+T=100`` in the paper's style."""
        if not self.enabled:
            return "baseline"
        if self.kind == "swl":
            return f"SWL+k={self.k}+T={int(self.threshold)}"
        if self.kind == "dual-pool":
            return f"DP+d={self.delta}+p={self.check_period}"
        if self.kind == "cache-avoid":
            return f"CACHE+{self.cache_pages}p"
        return f"SOFTWEAR+n={self.period_requests}+s={self.span_blocks}"

    def build(
        self,
        num_blocks: int,
        host: "WearLevelingHost",
        *,
        rng: random.Random | None = None,
    ) -> object | None:
        """Instantiate the named mechanism, or ``None`` when disabled.

        Every mechanism returned implements the common leveler driver
        surface (``on_block_erased`` / ``on_request`` / ``suspend`` /
        ``resume`` / ``on_block_retired`` / ``snapshot_state`` /
        ``restore_state`` / ``label`` / ``ram_bytes`` / ``stats``), so
        the stack and the array drive any of them interchangeably.
        """
        if not self.enabled:
            return None
        return _LEVELER_KINDS[self.kind](self, num_blocks, host, rng)
