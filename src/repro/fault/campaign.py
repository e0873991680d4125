"""Whole fault campaigns: transient-fault soak + power-loss sweep.

A campaign answers the robustness question end to end for one stack
configuration:

1. **Soak phase** — a long deterministic hot/cold workload runs with
   transient erase failures, grown-bad program failures, and read bit
   errors enabled.  Every acknowledged write is tracked and verified at
   the end, so silent data loss under fault recovery is caught; the
   recovery costs (retries, re-issued programs, drain copies, retired
   blocks) are collected from the driver and injector stats.
2. **Crash phase** — a :class:`~repro.fault.crashsim.CrashConsistencyHarness`
   sweeps scheduled power-loss points across the operation stream and
   checks the recovery invariants after each simulated reboot.

The result aggregates both phases; ``ok`` is the campaign's pass/fail
gate (zero data-integrity violations and zero crash-invariant
violations), which is what the ``repro faults`` CLI command reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.policies import LevelerSpec
from repro.fault.crashsim import (
    CrashConsistencyHarness,
    CrashSweepReport,
    hot_cold_lpns,
)
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.flash.errors import OutOfSpaceError, UncorrectableReadError
from repro.flash.geometry import FlashGeometry
from repro.ftl.factory import build_stack
from repro.util.diagnostics import fault_log
from repro.util.rng import make_rng

#: The crash sweep's first power-loss ordinal and the stride between
#: losses: a prime-ish stride lands losses inside host writes, GC, folds
#: and SWL moves alike rather than beating with any workload period.
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
        Transient-fault model for the soak; its power-loss schedule is
        ignored there (crashes belong to the sweep).
    loss_points:
        The crash sweep schedules ``loss_points`` power losses at
        operation ordinals ``LOSS_START + i * LOSS_STRIDE``, each over
        a run of ``CRASH_WRITES`` host writes.
    """
    plan = plan or FaultPlan()
    soak_plan = replace(plan, power_loss_at=())
    label = f"{driver}+{swl.label()}" if swl is not None else driver
    result = FaultCampaignResult(label=label)

    # ---- phase 1: transient-fault soak with data-integrity tracking ----
    injector = FaultInjector(soak_plan)
    stack = build_stack(
        geometry,
        driver,
        swl,
        store_data=True,
        rng=make_rng(seed),
        injector=injector,
    )
    layer = stack.layer
    acked: dict[int, bytes] = {}
    completed = 0
    device_full = False
    lpns = hot_cold_lpns(layer.num_logical_pages, soak_writes, seed)
    for version, lpn in enumerate(lpns):
        payload = f"soak lpn={lpn} v={version}".encode()
        try:
            layer.write(lpn, payload)
        except OutOfSpaceError:
            device_full = True
            fault_log.warning(
                "soak stopped after %d writes: retirement consumed the "
                "over-provisioning reserve", version,
            )
            break
        acked[lpn] = payload
        completed += 1
    result.soak_writes = completed
    for lpn, payload in acked.items():
        try:
            got = layer.read(lpn)
        except UncorrectableReadError as exc:
            result.soak_violations.append(f"uncorrectable read of lpn {lpn}: {exc}")
            continue
        if got != payload:
            result.soak_violations.append(
                f"soak data loss on lpn {lpn}: expected {payload!r}, got {got!r}"
            )
    # A soak that ended at device-full aborted an operation midway; the
    # strict bookkeeping check only applies to a device still in service.
    if not device_full:
        try:
            layer.assert_internal_consistency()
        except AssertionError as exc:
            result.soak_violations.append(f"soak internal consistency: {exc}")

    # Unrecovered-fault gate: every block a delivered fault condemned must
    # have finished its retirement by soak end — data migrated off and the
    # block marked bad.  Anything still pending is a recovery the driver
    # dropped on the floor, and ``repro faults`` must exit nonzero for it.
    # A device-full abort is exempt like the consistency check above: the
    # OutOfSpaceError interrupted a retirement that had nowhere to migrate
    # to — end of device life, not a dropped recovery.
    unrecovered = sorted(layer.failed_blocks) if not device_full else []
    result.unrecovered_faults = len(unrecovered)
    if unrecovered:
        result.soak_violations.append(
            f"{len(unrecovered)} injected fault(s) left unrecovered at soak "
            f"end: blocks {unrecovered} condemned but never retired"
        )

    result.injector_stats = injector.stats.as_dict()
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
    result.soak_erases = stack.flash.total_erases()

    # ---- phase 2: power-loss sweep with recovery invariants ------------
    harness = CrashConsistencyHarness(
        geometry,
        driver,
        swl,
        plan=soak_plan,
        seed=seed,
        writes=CRASH_WRITES,
    )
    result.crash_report = harness.sweep(
        LOSS_START + i * LOSS_STRIDE for i in range(loss_points)
    )
    return result
