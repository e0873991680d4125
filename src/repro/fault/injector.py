"""The seeded, deterministic fault-injection engine.

A :class:`FaultInjector` is attached to one :class:`~repro.flash.chip.NandFlash`
(via :meth:`NandFlash.attach_injector`) and consulted on every primitive
operation.  The chip calls one hook per operation *before* applying any
state change; the hook either returns normally (no fault) or raises one of
the :mod:`repro.flash.errors` fault types.  Partial-effect semantics (a
torn page, a program-failed page) are enacted by the chip, which knows its
own state representation.

Determinism: all randomness comes from one ``random.Random`` seeded from
the plan, and decisions depend only on the operation sequence — replaying
the same workload against the same plan reproduces the same faults, which
is what makes fault campaigns CI-able.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.flash.errors import (
    PowerLossError,
    ProgramFaultError,
    TransientEraseError,
    UncorrectableReadError,
)
from repro.fault.plan import FaultPlan
from repro.obs.bus import M_FAULT_INJECTED, M_POWER_LOSS
from repro.obs.events import FaultInjected
from repro.obs.events import PowerLoss as PowerLossEvent
from repro.util.diagnostics import fault_log
from repro.util.rng import make_rng, rng_state_from_json, rng_state_to_json

if TYPE_CHECKING:
    from repro.obs.bus import BusLike

#: Bit errors ECC corrects per page read; more force a re-read.
ECC_CORRECTABLE_BITS = 8

#: Re-reads attempted before a read error surfaces as uncorrectable.
READ_RETRY_LIMIT = 3


@dataclass
class FaultStats:
    """Everything the injector did, for campaign reporting."""

    ops: int = 0                     #: chip operations observed
    erase_faults: int = 0            #: transient erase failures delivered
    program_faults: int = 0          #: program failures delivered
    read_errors_corrected: int = 0   #: reads with bit errors ECC fixed
    read_retries: int = 0            #: extra read attempts forced by ECC
    reads_uncorrectable: int = 0     #: reads that exhausted the retry budget
    power_losses: int = 0            #: scheduled power-loss points fired
    torn_pages: int = 0              #: pages left torn by power loss

    def as_dict(self) -> dict[str, int]:
        return {
            "ops": self.ops,
            "erase_faults": self.erase_faults,
            "program_faults": self.program_faults,
            "read_errors_corrected": self.read_errors_corrected,
            "read_retries": self.read_retries,
            "reads_uncorrectable": self.reads_uncorrectable,
            "power_losses": self.power_losses,
            "torn_pages": self.torn_pages,
        }


class FaultInjector:
    """Per-chip fault source driven by a :class:`FaultPlan`.

    Parameters
    ----------
    plan:
        The declarative fault model.
    page_bits:
        Data bits per page (for the read bit-error model); set by the
        chip at attach time when omitted.
    endurance:
        Rated erase endurance (for the Weibull erase hazard); set by the
        chip at attach time when omitted.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        page_bits: int | None = None,
        endurance: int | None = None,
    ) -> None:
        self.plan = plan
        self.page_bits = page_bits
        self.endurance = endurance
        self.rng = make_rng(plan.seed)
        self.stats = FaultStats()
        #: Blocks whose programs permanently fail (grown bad): one program
        #: failure condemns the block until the driver retires it.
        self.bad_program_blocks: set[int] = set()
        self._loss_schedule = list(plan.power_loss_at)  # ascending
        self._loss_cursor = 0
        self._obs: "BusLike | None" = None

    def attach_bus(self, bus: "BusLike | None") -> None:
        """Emit ``FaultInjected``/``PowerLoss`` telemetry on ``bus``."""
        self._obs = bus

    # ------------------------------------------------------------------
    # Power-loss scheduling
    # ------------------------------------------------------------------
    def _tick(self) -> bool:
        """Count one operation; ``True`` when power dies at this ordinal."""
        self.stats.ops += 1
        if self._loss_cursor < len(self._loss_schedule):
            if self.stats.ops >= self._loss_schedule[self._loss_cursor]:
                self._loss_cursor += 1
                self.stats.power_losses += 1
                return True
        return False

    def cancel_power_loss(self) -> None:
        """Drop any unfired loss points (the crash harness verifies a
        device that stayed powered through its workload)."""
        self._loss_cursor = len(self._loss_schedule)

    def _power_loss(self) -> PowerLossError:
        fault_log.info("power loss at op %d", self.stats.ops)
        if self._obs is not None and self._obs.mask & M_POWER_LOSS:
            self._obs.emit(PowerLossEvent(self.stats.ops))
        return PowerLossError(
            f"power lost at operation {self.stats.ops}", op_ordinal=self.stats.ops
        )

    # ------------------------------------------------------------------
    # Chip-facing hooks (called before the operation takes effect)
    # ------------------------------------------------------------------
    def on_erase(self, block: int, wear: int) -> None:
        """Erase hook: may raise power loss or a transient erase failure."""
        if self._tick():
            raise self._power_loss()
        hazard = self.plan.erase_hazard(wear, self.endurance or 0)
        if hazard and self.rng.random() < hazard:
            self.stats.erase_faults += 1
            fault_log.debug("transient erase failure on block %d (wear %d)",
                            block, wear)
            if self._obs is not None and self._obs.mask & M_FAULT_INJECTED:
                self._obs.emit(FaultInjected("erase", block, -1))
            raise TransientEraseError(
                f"erase of block {block} failed (transient, wear={wear})",
                block=block,
            )

    def on_program(self, block: int, page: int) -> None:
        """Program hook: may raise power loss or a program failure.

        Raises :class:`PowerLossError` at a scheduled point and
        :class:`ProgramFaultError` when the block is (or becomes) grown
        bad for programs; the chip tears the page a power loss strikes.
        """
        if self._tick():
            raise self._power_loss()
        if block in self.bad_program_blocks or (
            self.plan.program_fail_prob
            and self.rng.random() < self.plan.program_fail_prob
        ):
            self.bad_program_blocks.add(block)
            self.stats.program_faults += 1
            fault_log.debug("program failure on page (%d, %d)", block, page)
            if self._obs is not None and self._obs.mask & M_FAULT_INJECTED:
                self._obs.emit(FaultInjected("program", block, page))
            raise ProgramFaultError(
                f"program of page ({block}, {page}) failed verification; "
                "block is grown bad",
                block=block,
                page=page,
            )

    def on_read(self, block: int, page: int) -> int:
        """Read hook; returns the number of extra read attempts performed.

        Models the bounded-retry ECC path: each attempt draws a bit-error
        count; at most ``ECC_CORRECTABLE_BITS`` errors are corrected
        transparently, more forces a re-read.  Exhausting
        ``READ_RETRY_LIMIT`` retries raises
        :class:`UncorrectableReadError`.
        """
        if self._tick():
            raise self._power_loss()
        if not self.plan.read_ber or not self.page_bits:
            return 0
        lam = self.plan.read_ber * self.page_bits
        retries = 0
        while True:
            errors = self._poisson(lam)
            if errors == 0:
                return retries
            if errors <= ECC_CORRECTABLE_BITS:
                self.stats.read_errors_corrected += 1
                return retries
            if retries >= READ_RETRY_LIMIT:
                self.stats.reads_uncorrectable += 1
                fault_log.debug("uncorrectable read on page (%d, %d) "
                                "after %d retries", block, page, retries)
                if self._obs is not None and self._obs.mask & M_FAULT_INJECTED:
                    self._obs.emit(FaultInjected("read", block, page))
                raise UncorrectableReadError(
                    f"read of page ({block}, {page}) uncorrectable after "
                    f"{retries} retries ({errors} bit errors)",
                    block=block,
                    page=page,
                )
            retries += 1
            self.stats.read_retries += 1

    def note_torn_page(self) -> None:
        """Called by the chip after leaving a page torn on power loss."""
        self.stats.torn_pages += 1

    # ------------------------------------------------------------------
    # Checkpointing (see repro.ckpt)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Freeze the fault engine mid-plan: RNG, stats, loss cursor.

        The plan itself is not serialized — it is part of the experiment
        configuration the checkpoint consumer rebuilds — but its seed is
        recorded so a restore into a different plan is rejected.
        """
        return {
            "plan_seed": self.plan.seed,
            "rng": rng_state_to_json(self.rng),
            "bad_program_blocks": sorted(self.bad_program_blocks),
            "loss_schedule": list(self._loss_schedule),
            "loss_cursor": self._loss_cursor,
            "stats": self.stats.as_dict(),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot_state`; rejects plan mismatches."""
        if state["plan_seed"] != self.plan.seed:
            raise ValueError(
                f"injector snapshot belongs to plan seed {state['plan_seed']}, "
                f"injector has seed {self.plan.seed}"
            )
        if list(state["loss_schedule"]) != self._loss_schedule:  # type: ignore[arg-type]
            raise ValueError(
                "injector snapshot power-loss schedule does not match the plan"
            )
        self.rng.setstate(rng_state_from_json(state["rng"]))  # type: ignore[arg-type]
        self.bad_program_blocks = set(state["bad_program_blocks"])  # type: ignore[arg-type]
        self._loss_cursor = state["loss_cursor"]  # type: ignore[assignment]
        stats = state["stats"]
        self.stats = FaultStats(**stats)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def _poisson(self, lam: float) -> int:
        """Knuth's Poisson sampler (lam is small for realistic BERs)."""
        if lam <= 0:
            return 0
        threshold = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.rng.random()
            if p <= threshold:
                return k
            k += 1

    def __repr__(self) -> str:
        return (
            f"FaultInjector(ops={self.stats.ops}, "
            f"erase_faults={self.stats.erase_faults}, "
            f"program_faults={self.stats.program_faults}, "
            f"power_losses={self.stats.power_losses})"
        )
