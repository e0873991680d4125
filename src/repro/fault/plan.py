"""Declarative fault model — what can go wrong, how often, and when.

A :class:`FaultPlan` is an immutable value describing every failure mode
the injector can exercise.  Keeping the model declarative (probabilities
and schedules, no callbacks) makes campaigns reproducible from a single
seed and lets the CLI construct plans from flags.

Failure modes
-------------
* **Transient erase failures** — an erase pulse aborts without changing
  the block; the driver retries a bounded number of times before
  declaring the block grown-bad.  The per-erase probability is either
  fixed (``erase_fail_prob``) or wear-dependent through a Weibull-shaped
  hazard (``erase_weibull_shape``): the probability scales with
  ``(erase_count / endurance) ** shape``, matching wear-distribution
  models where old blocks fail more often than fresh ones.
* **Program failures** — a page program fails verification and the block
  is grown-bad *permanently*: once a block suffers one program failure,
  every later program on it fails too (until it is retired).  The page
  involved holds garbage (invalid state).
* **Read bit errors** — each page read draws a bit-error count from a
  Poisson approximation of ``BER x page_bits``; ECC corrects a few bits
  transparently, more force a re-read, and a few exhausted retries
  surface as an uncorrectable read error (the ECC strength and the retry
  budget are the injector's constants).
* **Power loss** — at scheduled operation ordinals (programs + erases +
  reads, counted chip-wide) the in-flight operation never takes effect
  and :class:`~repro.flash.errors.PowerLossError` unwinds the stack.
  A program hit by power loss leaves its page torn: in the invalid
  state, a half-programmed page that fails ECC at the next attach scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class FaultPlan:
    """Immutable description of the faults one injector will deliver.

    All probabilities are per-operation and in ``[0, 1]``.  The default
    plan injects nothing; campaigns typically enable two or three modes
    at once.
    """

    seed: int = 0

    # -- erase failures -------------------------------------------------
    #: Per-erase probability of a transient failure (fixed mode), or the
    #: hazard ceiling reached at rated endurance (Weibull mode).
    erase_fail_prob: float = 0.0
    #: When set, the erase-failure hazard is
    #: ``erase_fail_prob * min(1, wear / endurance) ** shape`` — fresh
    #: blocks almost never fail, worn blocks approach the ceiling.
    erase_weibull_shape: float | None = None

    # -- program failures ----------------------------------------------
    #: Per-program probability that the target block becomes grown-bad.
    program_fail_prob: float = 0.0

    # -- read errors ----------------------------------------------------
    #: Raw bit-error rate per read (errors per bit).
    read_ber: float = 0.0

    # -- power loss -----------------------------------------------------
    #: Chip-wide operation ordinals (1-based) at which power is lost.
    power_loss_at: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("erase_fail_prob", "program_fail_prob", "read_ber"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.erase_weibull_shape is not None and self.erase_weibull_shape <= 0:
            raise ValueError(
                f"erase_weibull_shape must be positive, got {self.erase_weibull_shape}"
            )
        if any(point <= 0 for point in self.power_loss_at):
            raise ValueError("power_loss_at ordinals must be positive (1-based)")
        # Normalize the schedule so the injector can pop points in order.
        object.__setattr__(
            self, "power_loss_at", tuple(sorted(set(self.power_loss_at)))
        )

    def for_shard(self, index: int) -> "FaultPlan":
        """A copy of this plan reseeded for one channel shard.

        Device arrays attach one injector per shard; giving every shard
        the same seed would fault all channels in lock-step, which no
        physical array does.  The shard seed is drawn from a stream named
        by ``(seed, shard index)`` — the same salted-stream idiom as
        :func:`~repro.util.rng.spawn_rng` — so plans stay reproducible
        and shard streams stay decorrelated.  Scheduled power-loss
        ordinals are kept only on shard 0: operation ordinals are counted
        per chip, and replaying the schedule on every channel would
        multiply one planned outage into N.
        """
        if index < 0:
            raise ValueError(f"shard index must be >= 0, got {index}")
        shard_seed = random.Random(f"{self.seed}:shard{index}").getrandbits(48)
        return replace(
            self,
            seed=shard_seed,
            power_loss_at=self.power_loss_at if index == 0 else (),
        )

    def erase_hazard(self, wear: int, endurance: int) -> float:
        """Erase-failure probability for a block at ``wear`` cycles."""
        if self.erase_fail_prob == 0.0:
            return 0.0
        if self.erase_weibull_shape is None:
            return self.erase_fail_prob
        if endurance <= 0:
            return self.erase_fail_prob
        age = min(1.0, wear / endurance)
        return self.erase_fail_prob * age ** self.erase_weibull_shape
