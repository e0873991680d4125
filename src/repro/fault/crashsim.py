"""The fault driver: one host-write loop and one invariant checker.

:meth:`CrashConsistencyHarness.drive` builds a faulted stack and writes
the seeded hot/cold page stream (:func:`hot_cold_lpns`) to it, keeping
the last acknowledged payload of every page.  It stops at device-full
or at the one power loss the run may schedule.  Two callers share it:

* the fault campaign's soak (:mod:`repro.fault.campaign`) is a drive
  with no power loss scheduled;
* a crash run (:meth:`CrashConsistencyHarness.run_once`) schedules one
  loss, then "reboots" the device — RAM wiring is dropped, a new driver
  rebuilds its mapping from spare-area tags, a new SW Leveler reloads
  its BET from the dual-buffer store — and sends more traffic.

:func:`check_invariants` is the one checker both use; it reads pages
and writes none:

* every acknowledged write reads back its exact payload (a write a
  power loss interrupted was never acknowledged and may vanish);
* the driver's RAM tables agree with the chip's page states
  (``assert_internal_consistency``);
* the BET is self-consistent (``popcount(flags) == fcnt``);
* the retired-block set matches the chip's bad-block table and stays
  out of the free pool.

A crash run checks them after the reboot and again after the further
traffic, which must also never erase a retired block.  Sweeping the loss
point across many operation ordinals (:meth:`CrashConsistencyHarness.sweep`)
is the fault campaign's crash phase.
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
from repro.util.rng import below, make_rng

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
        yield below(rng, hot_pages if rng.random() < HOT_WRITE_SHARE else num_pages)


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


@dataclass
class _Drive:
    """What one :meth:`CrashConsistencyHarness.drive` left behind."""

    stack: StorageStack
    #: The BET images the SW Leveler persisted along the way.
    store: BetStore = field(default_factory=BetStore)
    #: Each written page's last acknowledged payload.
    acked: dict[int, bytes] = field(default_factory=dict)
    writes: int = 0                             #: host writes acknowledged
    inflight: tuple[int, bytes] | None = None   #: the write a loss cut off
    device_full: bool = False                   #: stopped at OutOfSpaceError


def check_invariants(
    stack: StorageStack, acked: dict[int, bytes], *, device_full: bool = False
) -> list[str]:
    """The invariants of a powered stack; reads pages, writes none.

    ``acked`` maps each page to the payload it must read back.  After a
    ``device_full`` stop the aborted operation leaves the driver's
    bookkeeping legitimately degraded, so the table check is skipped;
    acknowledged data must still read back.
    """
    layer, leveler = stack.layer, stack.leveler
    violations = []
    for lpn, payload in acked.items():
        try:
            got = layer.read(lpn)
        except Exception as exc:  # noqa: BLE001 - any failure is a finding
            violations.append(f"read of acked lpn {lpn} raised {exc!r}")
            continue
        if got != payload:
            violations.append(f"acked lpn {lpn}: expected {payload!r}, got {got!r}")
    if not device_full:
        try:
            layer.assert_internal_consistency()
        except AssertionError as exc:
            violations.append(f"internal consistency: {exc}")
    if leveler is not None and leveler.supports_coordination:
        bet = leveler.bet
        if bet._flags.popcount() != bet.fcnt:
            violations.append(
                f"BET fcnt={bet.fcnt} disagrees with "
                f"{bet._flags.popcount()} set flags"
            )
    if layer.retired_blocks != stack.flash.bad_blocks:
        violations.append(
            f"retired set {sorted(layer.retired_blocks)} != chip "
            f"bad-block table {sorted(stack.flash.bad_blocks)}"
        )
    pooled = layer.allocator.free_blocks() & layer.retired_blocks
    if pooled:
        violations.append(f"retired blocks in the free pool: {sorted(pooled)}")
    return violations


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
        Host writes attempted per drive (a loss usually stops it earlier),
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
    def drive(self, loss_at: int | None = None) -> _Drive:
        """Build a faulted stack and write the hot/cold stream to it.

        Stops at device-full or at the power loss scheduled at chip
        operation ``loss_at`` (none when ``None``), then cancels the loss
        if it has not fired: whatever follows models a powered session.
        """
        plan = replace(
            self.plan, power_loss_at=() if loss_at is None else (loss_at,)
        )
        stack = build_stack(
            self.geometry,
            self.driver,
            self.swl,
            store_data=True,
            rng=make_rng(self.seed),
            injector=FaultInjector(plan),
        )
        run = _Drive(stack)
        layer, leveler = stack.layer, stack.leveler
        lpns = hot_cold_lpns(layer.num_logical_pages, self.writes, self.seed)
        for version, lpn in enumerate(lpns):
            payload = f"lpn={lpn} v={version}".encode()
            try:
                layer.write(lpn, payload)
            except PowerLossError:
                run.inflight = (lpn, payload)
                break
            except OutOfSpaceError:
                fault_log.warning(
                    "drive stopped after %d writes: retirement consumed the "
                    "over-provisioning reserve", version,
                )
                run.device_full = True
                break
            run.acked[lpn] = payload
            run.writes += 1
            # Only the BET-carrying SW Leveler persists state to the
            # media (dual-buffer BetStore); challenger mechanisms hold
            # RAM-only bookkeeping (persist is a no-op, restore False)
            # and reboot blank by design.
            if leveler is not None and run.writes % PERSIST_EVERY == 0:
                leveler.persist(run.store)
        stack.flash.injector.cancel_power_loss()
        return run

    def run_once(self, loss_at: int) -> CrashVerdict:
        """One crash/recovery cycle with power loss scheduled at ``loss_at``."""
        run = self.drive(loss_at)
        stack, acked = run.stack, run.acked
        verdict = CrashVerdict(
            loss_point=loss_at,
            crashed=run.inflight is not None,
            writes_acked=len(acked),
        )
        if run.inflight is not None:
            stack, verdict.bet_restored, verdict.mappings_recovered = (
                self._reboot(stack, run.store)
            )
            # The write the crash interrupted was never acknowledged, so it
            # may legally be lost — or fully durable when the loss struck
            # after its program and invalidate (e.g. in the deferred GC).
            # If it persisted, it supersedes the last acked version.
            lpn, payload = run.inflight
            if stack.layer.read(lpn) == payload:
                acked[lpn] = payload
        verdict.violations = check_invariants(
            stack, acked, device_full=run.device_full
        )
        verdict.violations += self._more_traffic(
            stack, acked, device_full=run.device_full
        )
        verdict.retired_blocks = len(stack.layer.retired_blocks)
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

    def _more_traffic(
        self, stack: StorageStack, acked: dict[int, bytes], *, device_full: bool
    ) -> list[str]:
        """Random writes after the checks: they must erase no retired block,
        and the invariants must still hold after them."""
        layer = stack.layer
        wear_before = {
            block: stack.mtd.erase_counts[block] for block in layer.retired_blocks
        }
        rng = make_rng(self.seed + 2)
        extra = min(self.writes // 4, layer.num_logical_pages)
        for version in range(extra):
            lpn = below(rng, layer.num_logical_pages)
            payload = f"post lpn={lpn} v={version}".encode()
            try:
                layer.write(lpn, payload)
            except OutOfSpaceError:
                device_full = True  # a heavily-faulted tiny chip may fill up
                break
            acked[lpn] = payload
        violations = [
            f"retired block {block} was erased again after reboot"
            for block, wear in wear_before.items()
            if stack.mtd.erase_counts[block] != wear
        ]
        return violations + [
            f"after more traffic: {violation}"
            for violation in check_invariants(stack, acked, device_full=device_full)
        ]

    # ------------------------------------------------------------------
    def sweep(self, loss_points) -> CrashSweepReport:
        """Run :meth:`run_once` for every ordinal in ``loss_points``."""
        report = CrashSweepReport()
        for point in loss_points:
            report.verdicts.append(self.run_once(point))
        return report
