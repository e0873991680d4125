"""Array-wide wear coordination across channel shards.

Running one independent SW Leveler per channel levels wear *within* each
shard but cannot see imbalance *between* shards — the failure mode the
distributed wear-leveling literature warns about: a shard that receives
hot data wears out while its neighbours idle.  The
:class:`WearCoordinator` closes that gap.  Every shard leveler routes its
trigger check through the coordinator (the hook added to
:class:`~repro.core.leveler.SWLeveler`), which supports two scopes:

``per-shard``
    Each shard evaluates its own ``ecnt / fcnt`` against ``T`` and runs
    SWL-Procedure locally, exactly as a standalone stack would.  This is
    the default and the mode whose 1-channel behaviour is bit-identical
    to the single-chip system.

``global``
    The coordinator aggregates ``ecnt`` and ``fcnt`` over every shard
    into one array-wide unevenness level.  When that reaches ``T`` it
    runs SWL-Procedure on the *most uneven* shard (highest local
    ``ecnt / fcnt``), repeating until the aggregate level drops below
    ``T`` or no eligible shard can make progress.  Cold shards are thus
    leveled on behalf of hot ones — coordinated static wear leveling at
    array scale.

The two scopes let the ablation compare per-shard-T against global-T on
the same workload (``--swl-scope`` on the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.leveler import SWLeveler
from repro.util.diagnostics import leveler_log

#: Valid ``scope`` values, in CLI order.
SCOPES = ("per-shard", "global")


@dataclass
class CoordinatorStats:
    """Bookkeeping of the coordinator's global-scope decisions."""

    global_checks: int = 0      #: aggregate-threshold evaluations
    global_runs: int = 0        #: SWL-Procedure runs the coordinator forced
    shard_runs: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, int]:
        data = {
            "global_checks": self.global_checks,
            "global_runs": self.global_runs,
        }
        for shard, runs in sorted(self.shard_runs.items()):
            data[f"shard{shard}_runs"] = runs
        return data


class WearCoordinator:
    """Aggregates shard BET counters and dispatches SWL-Procedure.

    Parameters
    ----------
    threshold:
        Array-wide unevenness threshold ``T`` for ``global`` scope.
    scope:
        ``"per-shard"`` (independent levelers) or ``"global"``.
    """

    def __init__(self, threshold: float, *, scope: str = "per-shard") -> None:
        if scope not in SCOPES:
            raise ValueError(
                f"unknown coordinator scope {scope!r}; choose from {SCOPES}"
            )
        if threshold <= 0:
            raise ValueError(f"threshold T must be positive, got {threshold}")
        self.threshold = threshold
        self.scope = scope
        self.levelers: list[SWLeveler] = []
        self.stats = CoordinatorStats()
        self._in_run = False

    def attach(self, leveler: SWLeveler) -> None:
        """Register a shard leveler and route its trigger through us."""
        leveler.coordinator = self
        self.levelers.append(leveler)

    # ------------------------------------------------------------------
    # Aggregate wear state
    # ------------------------------------------------------------------
    @property
    def ecnt(self) -> int:
        """Array-wide erase count since the shards' last BET resets."""
        return sum(leveler.bet.ecnt for leveler in self.levelers)

    @property
    def fcnt(self) -> int:
        """Array-wide count of set BET flags."""
        return sum(leveler.bet.fcnt for leveler in self.levelers)

    def unevenness(self) -> float:
        """Aggregate unevenness level ``sum(ecnt) / sum(fcnt)``."""
        fcnt = self.fcnt
        if fcnt == 0:
            return 0.0
        return self.ecnt / fcnt

    # ------------------------------------------------------------------
    # The leveler-side hook
    # ------------------------------------------------------------------
    def on_trigger(self, source: SWLeveler) -> None:
        """A shard leveler's erase-driven check fired; decide what runs.

        Re-entrant calls (a forced recycle on one shard causing erases
        whose trigger checks land back here) are absorbed: the outer run
        already loops until the aggregate level is healthy.
        """
        if self.scope == "per-shard":
            source.maybe_run()
            return
        if self._in_run:
            return
        self.stats.global_checks += 1
        self._in_run = True
        try:
            while self.unevenness() >= self.threshold:
                target = self._most_uneven()
                if target is None or not target.run_procedure():
                    break
                shard = self.levelers.index(target)
                self.stats.global_runs += 1
                self.stats.shard_runs[shard] = (
                    self.stats.shard_runs.get(shard, 0) + 1
                )
                leveler_log.debug(
                    "coordinator: leveled shard %d (aggregate unevenness "
                    "now %.1f)", shard, self.unevenness(),
                )
        finally:
            self._in_run = False

    def _most_uneven(self) -> SWLeveler | None:
        """The eligible shard leveler with the highest local unevenness.

        A shard is eligible when it has recorded erases (``fcnt > 0``,
        Algorithm 1 step 1), is not already inside its own procedure, and
        is not suspended by its driver's in-flight garbage collection.
        """
        best: SWLeveler | None = None
        best_level = 0.0
        for leveler in self.levelers:
            if leveler.bet.fcnt == 0:
                continue
            if leveler.in_procedure or leveler.suspended:
                continue
            level = leveler.bet.unevenness()
            if best is None or level > best_level:
                best = leveler
                best_level = level
        return best

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """The coordinator's own mutable state: its decision statistics.

        Shard levelers snapshot themselves; the attachment wiring is
        rebuilt when the array is reconstructed.
        """
        return {
            "threshold": self.threshold,
            "scope": self.scope,
            "global_checks": self.stats.global_checks,
            "global_runs": self.stats.global_runs,
            "shard_runs": [
                [shard, runs] for shard, runs in sorted(self.stats.shard_runs.items())
            ],
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`; rejects config mismatches."""
        if state["threshold"] != self.threshold or state["scope"] != self.scope:
            raise ValueError(
                f"coordinator snapshot (T={state['threshold']}, "
                f"scope={state['scope']!r}) does not match "
                f"(T={self.threshold}, scope={self.scope!r})"
            )
        self.stats = CoordinatorStats(
            global_checks=state["global_checks"],  # type: ignore[arg-type]
            global_runs=state["global_runs"],  # type: ignore[arg-type]
            shard_runs={shard: runs for shard, runs in state["shard_runs"]},  # type: ignore[union-attr]
        )
        self._in_run = False

    def __repr__(self) -> str:
        return (
            f"WearCoordinator(scope={self.scope!r}, T={self.threshold}, "
            f"shards={len(self.levelers)}, unevenness={self.unevenness():.1f})"
        )
