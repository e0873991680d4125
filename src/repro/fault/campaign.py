"""Whole fault campaigns: transient-fault soak + power-loss sweep.

A campaign answers the robustness question end to end for one stack
configuration, through the one fault driver of
:mod:`repro.fault.crashsim`:

1. **Soak phase** — a :meth:`~repro.fault.crashsim.CrashConsistencyHarness.drive`
   with no power loss scheduled: a long deterministic hot/cold workload
   under transient erase failures, grown-bad program failures and read
   bit errors.  :func:`~repro.fault.crashsim.check_invariants` then
   checks it like any crash run (acknowledged data, driver tables, BET,
   retired set), and the unrecovered-fault gate catches a condemned block
   the driver never retired.  The recovery costs (retries, re-issued
   programs, drain copies, retired blocks) are read from the driver and
   injector stats after the checks, which cost no chip operation beyond
   the reads.
2. **Crash phase** — the same harness sweeps scheduled power-loss points
   across the operation stream and checks the same invariants after each
   simulated reboot.

The result aggregates both phases; ``ok`` is the campaign's pass/fail
gate (zero soak violations and zero crash-invariant violations), which
is what the ``repro faults`` CLI command reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.policies import LevelerSpec
from repro.fault.crashsim import (
    CrashConsistencyHarness,
    CrashSweepReport,
    check_invariants,
)
from repro.fault.plan import FaultPlan
from repro.flash.geometry import FlashGeometry

#: The crash sweep's first power-loss ordinal and the stride between
#: losses: a prime-ish stride avoids beating with any workload period.
#: A loss lands inside GC, a fold or an SWL move only if the run reaches
#: one by then: on ``repro faults``' 32-block FTL no crash run does (its
#: only erases retire blocks), while NFTL's fold from the loss at op 259 on.
LOSS_START = 25
LOSS_STRIDE = 13

#: Host writes of each crash-sweep run.
CRASH_WRITES = 600


@dataclass
class FaultCampaignResult:
    """Everything a fault campaign measured."""

    label: str
    soak_writes: int = 0                 #: host writes acknowledged in the soak
    injector_stats: dict[str, int] = field(default_factory=dict)
    recovery_stats: dict[str, int] = field(default_factory=dict)
    retired_blocks: int = 0
    soak_erases: int = 0                 #: all block erases during the soak
    unrecovered_faults: int = 0          #: blocks condemned but never retired
    soak_violations: list[str] = field(default_factory=list)
    crash_report: CrashSweepReport = field(default_factory=CrashSweepReport)

    @property
    def ok(self) -> bool:
        return not self.soak_violations and self.crash_report.ok

    @property
    def violations(self) -> list[str]:
        return self.soak_violations + self.crash_report.violations

    def recovery_summary(self) -> "FaultRecoverySummary":
        """Fault-vs-recovery cost digest (see :mod:`repro.sim.metrics`)."""
        from repro.sim.metrics import FaultRecoverySummary

        return FaultRecoverySummary.from_stats(
            self.injector_stats,
            self.recovery_stats,
            blocks_retired=self.retired_blocks,
            total_erases=self.soak_erases,
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "label": self.label,
            "ok": self.ok,
            "soak_writes": self.soak_writes,
            "soak_erases": self.soak_erases,
            "retired_blocks": self.retired_blocks,
            "unrecovered_faults": self.unrecovered_faults,
            "soak_violations": len(self.soak_violations),
            **{f"inj_{k}": v for k, v in self.injector_stats.items()},
            **{f"rec_{k}": v for k, v in self.recovery_stats.items()},
            **{f"crash_{k}": v for k, v in self.crash_report.as_dict().items()},
        }


def run_fault_campaign(
    geometry: FlashGeometry,
    driver: str = "ftl",
    swl: LevelerSpec | None = None,
    *,
    plan: FaultPlan | None = None,
    seed: int = 0,
    soak_writes: int = 2000,
    loss_points: int = 50,
) -> FaultCampaignResult:
    """Run a full fault campaign against one stack configuration.

    Parameters
    ----------
    plan:
        Transient-fault model of both phases; its power-loss schedule is
        ignored (the soak schedules no loss, each crash run one).
    loss_points:
        The crash sweep schedules ``loss_points`` power losses at
        operation ordinals ``LOSS_START + i * LOSS_STRIDE``, each over
        a run of ``CRASH_WRITES`` host writes.
    """
    plan = plan or FaultPlan()
    label = f"{driver}+{swl.label()}" if swl is not None else driver
    result = FaultCampaignResult(label=label)

    # ---- phase 1: the soak, a drive with no power loss -------------------
    soak = CrashConsistencyHarness(
        geometry, driver, swl, plan=plan, seed=seed, writes=soak_writes
    ).drive()
    layer = soak.stack.layer
    result.soak_writes = soak.writes
    result.soak_violations = check_invariants(
        soak.stack, soak.acked, device_full=soak.device_full
    )

    # Unrecovered-fault gate: every block a delivered fault condemned must
    # have finished its retirement by soak end — data migrated off and the
    # block marked bad.  Anything still pending is a recovery the driver
    # dropped on the floor, and ``repro faults`` must exit nonzero for it.
    # A device-full stop is exempt like the table check: the
    # OutOfSpaceError interrupted a retirement that had nowhere to migrate
    # to — end of device life, not a dropped recovery.
    unrecovered = sorted(layer.failed_blocks) if not soak.device_full else []
    result.unrecovered_faults = len(unrecovered)
    if unrecovered:
        result.soak_violations.append(
            f"{len(unrecovered)} injected fault(s) left unrecovered at soak "
            f"end: blocks {unrecovered} condemned but never retired"
        )

    result.injector_stats = soak.stack.flash.injector.stats.as_dict()
    layer_stats = layer.stats.as_dict()
    result.recovery_stats = {
        key: layer_stats.get(key, 0)
        for key in (
            "erase_retries",
            "program_faults",
            "recovery_copies",
            "recovery_erases",
        )
    }
    result.retired_blocks = len(layer.retired_blocks)
    result.soak_erases = soak.stack.flash.total_erases()

    # ---- phase 2: power-loss sweep with recovery invariants ------------
    harness = CrashConsistencyHarness(
        geometry,
        driver,
        swl,
        plan=plan,
        seed=seed,
        writes=CRASH_WRITES,
    )
    result.crash_report = harness.sweep(
        LOSS_START + i * LOSS_STRIDE for i in range(loss_points)
    )
    return result
