"""Fault injection and crash consistency for the simulated flash stack.

The paper's endurance argument presumes a device that fails; this package
makes failure *executable*:

* :mod:`repro.fault.plan` — :class:`FaultPlan`, the declarative fault
  model (transient erase failures, grown-bad program failures, read bit
  errors with bounded-retry ECC, scheduled power loss);
* :mod:`repro.fault.injector` — :class:`FaultInjector`, the seeded
  deterministic engine the chip consults on every primitive operation;
* :mod:`repro.fault.crashsim` — the one fault driver (a faulted stack fed
  the hot/cold write stream, optionally cut by a power loss), the one
  invariant checker, and the power-loss harness that reboots, rebuilds
  and checks across many loss points;
* :mod:`repro.fault.campaign` — whole fault campaigns: a soak (a drive
  with no power loss) and a crash sweep, reported through the CLI.
"""

from repro.fault.campaign import FaultCampaignResult, run_fault_campaign
from repro.fault.crashsim import (
    CrashConsistencyHarness,
    CrashSweepReport,
    CrashVerdict,
)
from repro.fault.injector import FaultInjector, FaultStats
from repro.fault.plan import FaultPlan

__all__ = [
    "CrashConsistencyHarness",
    "CrashSweepReport",
    "CrashVerdict",
    "FaultCampaignResult",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "run_fault_campaign",
]
