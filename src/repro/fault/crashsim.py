"""Power-loss crash-consistency harness.

Drives a deterministic host workload against a freshly built stack while a
:class:`~repro.fault.injector.FaultInjector` schedules one power loss; when
the loss fires, the harness "reboots" the device — RAM wiring is dropped, a
new driver rebuilds its mapping from spare-area tags, a new SW Leveler
reloads its BET from the dual-buffer store — and then checks the recovery
invariants:

* every write acknowledged before the loss reads back its exact payload
  (unacknowledged in-flight writes may vanish; acknowledged ones must not);
* the driver's RAM tables agree with the chip's page states
  (``assert_internal_consistency``);
* the restored BET is self-consistent (``popcount(flags) == fcnt``);
* the free pool and the retired-block set are disjoint, and the retired
  set matches the chip's bad-block table;
* retired blocks are never erased again by post-reboot traffic.

Sweeping the loss point across many operation ordinals
(:meth:`CrashConsistencyHarness.sweep`) exercises crashes inside host
writes, garbage collection, folds, and SWL-forced recycles alike — the
fault-campaign acceptance gate of this repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from repro.core.bet import BetStore
from repro.core.policies import LevelerSpec
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.flash.errors import OutOfSpaceError, PowerLossError
from repro.flash.geometry import FlashGeometry
from repro.ftl.factory import StorageStack, build_stack, make_layer
from repro.util.diagnostics import fault_log
from repro.util.rng import make_rng

#: The SW Leveler saves its BET to the dual-buffer store every this many
#: acknowledged host writes.
PERSIST_EVERY = 16

#: Share of the fault workloads' host writes that land on the hot pages,
#: the first fifth of the logical pages (:func:`hot_cold_lpns`).
HOT_WRITE_SHARE = 0.8


def hot_cold_lpns(num_pages: int, writes: int, seed: int) -> Iterator[int]:
    """The seeded hot/cold page stream of the soak and the crash sweep.

    ``HOT_WRITE_SHARE`` of the writes land on the first ``num_pages // 5``
    pages (at least one), the rest anywhere; each write draws the hot/cold
    coin, then the page.
    """
    rng = make_rng(seed)
    hot_pages = max(1, num_pages // 5)
    for _ in range(writes):
        yield rng.randrange(hot_pages if rng.random() < HOT_WRITE_SHARE else num_pages)


@dataclass
class CrashVerdict:
    """Outcome of one crash/recovery cycle at a single loss point."""

    loss_point: int                  #: scheduled chip-op ordinal
    crashed: bool                    #: whether the loss fired in time
    writes_acked: int                #: host writes acknowledged pre-loss
    mappings_recovered: int = 0      #: mappings rebuilt at attach
    bet_restored: bool = False       #: dual-buffer BET load succeeded
    retired_blocks: int = 0          #: grown-bad blocks after recovery
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CrashSweepReport:
    """Aggregate of a loss-point sweep."""

    verdicts: list[CrashVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def crashes(self) -> int:
        return sum(1 for v in self.verdicts if v.crashed)

    @property
    def violations(self) -> list[str]:
        return [
            f"loss@{v.loss_point}: {violation}"
            for v in self.verdicts
            for violation in v.violations
        ]

    def as_dict(self) -> dict[str, object]:
        return {
            "loss_points": len(self.verdicts),
            "crashes": self.crashes,
            "violations": len(self.violations),
            "bet_restores": sum(1 for v in self.verdicts if v.bet_restored),
            "mappings_recovered": sum(v.mappings_recovered for v in self.verdicts),
        }


class CrashConsistencyHarness:
    """Build, crash, reboot, and verify one storage configuration.

    Parameters
    ----------
    geometry:
        Chip organization under test.
    driver:
        ``"ftl"`` or ``"nftl"``.
    swl:
        SW Leveler configuration; ``None`` runs the baseline driver.
    plan:
        Base fault plan; its power-loss schedule is replaced per run, the
        other modes (erase/program faults, read errors) stay active so
        crashes compose with fault recovery.
    seed:
        Master seed for the workload and the leveler.
    writes:
        Host writes attempted per run (the loss usually fires earlier),
        drawn by :func:`hot_cold_lpns`.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        driver: str = "ftl",
        swl: LevelerSpec | None = None,
        *,
        plan: FaultPlan | None = None,
        seed: int = 0,
        writes: int = 400,
    ) -> None:
        if writes <= 0:
            raise ValueError(f"writes must be positive, got {writes}")
        self.geometry = geometry
        self.driver = driver
        self.swl = swl
        self.plan = plan or FaultPlan()
        self.seed = seed
        self.writes = writes

    # ------------------------------------------------------------------
    def run_once(self, loss_at: int) -> CrashVerdict:
        """One crash/recovery cycle with power loss scheduled at ``loss_at``."""
        plan = replace(self.plan, power_loss_at=(loss_at,))
        injector = FaultInjector(plan)
        stack = build_stack(
            self.geometry,
            self.driver,
            self.swl,
            store_data=True,
            rng=make_rng(self.seed),
            injector=injector,
        )
        layer, leveler = stack.layer, stack.leveler
        store = BetStore()
        acked: dict[int, bytes] = {}
        inflight: tuple[int, bytes] | None = None
        crashed = False
        device_full = False
        lpns = hot_cold_lpns(layer.num_logical_pages, self.writes, self.seed)
        for count, lpn in enumerate(lpns, start=1):
            payload = f"lpn={lpn} v={count - 1}".encode()
            try:
                layer.write(lpn, payload)
            except PowerLossError:
                crashed = True
                inflight = (lpn, payload)
                break
            except OutOfSpaceError:
                # Grown-bad retirement ate the reserve: end of device life.
                # Acknowledged data must survive; internal bookkeeping of
                # the aborted operation is no longer held to account.
                device_full = True
                break
            acked[lpn] = payload
            # Only the BET-carrying SW Leveler persists state to the
            # media (dual-buffer BetStore); challenger mechanisms hold
            # RAM-only bookkeeping (persist is a no-op, restore False)
            # and reboot blank by design.
            if leveler is not None and count % PERSIST_EVERY == 0:
                leveler.persist(store)

        verdict = CrashVerdict(
            loss_point=loss_at, crashed=crashed, writes_acked=len(acked)
        )
        # A loss point beyond the workload must not fire mid-verification:
        # the checks model a later, fully powered session.
        injector.cancel_power_loss()
        if crashed:
            stack, verdict.bet_restored, verdict.mappings_recovered = (
                self._reboot(stack, store)
            )
            layer, leveler = stack.layer, stack.leveler
        if inflight is not None:
            # The write the crash interrupted was never acknowledged, so it
            # may legally be lost — or fully durable when the loss struck
            # after its program and invalidate (e.g. in the deferred GC).
            # If it persisted, it supersedes the last acked version.
            lpn, payload = inflight
            if layer.read(lpn) == payload:
                acked[lpn] = payload
        self._check_invariants(
            stack, layer, leveler, acked, verdict, device_full=device_full
        )
        verdict.retired_blocks = len(layer.retired_blocks)
        return verdict

    def _reboot(
        self, stack: StorageStack, store: BetStore
    ) -> tuple[StorageStack, bool, int]:
        """Power-cycle the device: drop RAM state, rebuild from the media.

        Returns the rebooted stack over the same chip, whether the BET
        was restored, and the mappings the driver rebuilt.
        """
        fault_log.info("rebooting %s after power loss", self.driver)
        # RAM wiring (erase listeners, driver tables, leveler) dies with
        # the power; the chip object *is* the persistent media.
        stack.mtd.clear_erase_listeners()
        layer = make_layer(self.driver, stack.mtd)
        recovered = layer.rebuild_mapping()
        leveler = None
        restored = False
        if self.swl is not None and self.swl.enabled:
            leveler = self.swl.build(
                self.geometry.num_blocks, layer, rng=make_rng(self.seed + 1)
            )
            layer.attach_leveler(leveler)
            restored = leveler.restore(store)
        rebooted = StorageStack(
            flash=stack.flash, mtd=stack.mtd, layer=layer, leveler=leveler
        )
        return rebooted, restored, recovered

    def _check_invariants(
        self, stack, layer, leveler, acked, verdict, *, device_full: bool = False
    ) -> None:
        violations = verdict.violations

        # 1. No acknowledged write may be lost or corrupted.
        for lpn, payload in acked.items():
            try:
                got = layer.read(lpn)
            except Exception as exc:  # noqa: BLE001 - any failure is a finding
                violations.append(f"read of acked lpn {lpn} raised {exc!r}")
                continue
            if got != payload:
                violations.append(
                    f"acked lpn {lpn}: expected {payload!r}, got {got!r}"
                )

        # 2. Driver RAM tables vs chip page states.  An operation aborted
        # by device-full (OutOfSpaceError) leaves the strict bookkeeping
        # legitimately degraded; data readability above still holds.
        if not device_full:
            try:
                layer.assert_internal_consistency()
            except AssertionError as exc:
                violations.append(f"internal consistency: {exc}")

        # 3. Restored BET self-consistency (BET-carrying levelers only).
        if leveler is not None and leveler.supports_coordination:
            bet = leveler.bet
            if bet._flags.popcount() != bet.fcnt:
                violations.append(
                    f"BET fcnt={bet.fcnt} disagrees with "
                    f"{bet._flags.popcount()} set flags"
                )

        # 4. Retired set matches the chip's bad-block table; never pooled.
        if layer.retired_blocks != stack.flash.bad_blocks:
            violations.append(
                f"retired set {sorted(layer.retired_blocks)} != chip "
                f"bad-block table {sorted(stack.flash.bad_blocks)}"
            )
        pooled = layer.allocator.free_blocks() & layer.retired_blocks
        if pooled:
            violations.append(f"retired blocks in the free pool: {sorted(pooled)}")

        # 5. Post-reboot traffic must leave retired blocks untouched and
        #    keep acknowledged data readable.
        wear_before = {
            block: stack.mtd.erase_counts[block] for block in layer.retired_blocks
        }
        rng = make_rng(self.seed + 2)
        extra = min(self.writes // 4, layer.num_logical_pages)
        for version in range(extra):
            lpn = rng.randrange(layer.num_logical_pages)
            payload = f"post lpn={lpn} v={version}".encode()
            try:
                layer.write(lpn, payload)
            except OutOfSpaceError:
                break  # a heavily-faulted tiny chip may legitimately fill up
            acked[lpn] = payload
        for block, wear in wear_before.items():
            if stack.mtd.erase_counts[block] != wear:
                violations.append(
                    f"retired block {block} was erased again after reboot"
                )
        for lpn, payload in acked.items():
            if layer.read(lpn) != payload:
                violations.append(f"post-reboot data loss on lpn {lpn}")
                break

    # ------------------------------------------------------------------
    def sweep(self, loss_points) -> CrashSweepReport:
        """Run :meth:`run_once` for every ordinal in ``loss_points``."""
        report = CrashSweepReport()
        for point in loss_points:
            report.verdicts.append(self.run_once(point))
        return report
