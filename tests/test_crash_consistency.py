"""Crash-consistency acceptance tests: swept power-loss recovery.

The headline gate for the fault subsystem: a campaign with transient
erase failures, grown-bad program failures, and at least 50 swept
power-loss points completes with zero invariant violations under a fixed
RNG seed, for both translation drivers.
"""

from __future__ import annotations

import pytest

from repro.core.config import SWLConfig
from repro.fault.campaign import run_fault_campaign
from repro.fault.crashsim import CrashConsistencyHarness
from repro.fault.plan import FaultPlan
from repro.sim.experiment import scaled_mlc2_geometry

ACCEPTANCE_PLAN = FaultPlan(
    seed=3,
    erase_fail_prob=0.05,
    program_fail_prob=0.002,
    read_ber=1e-7,
)


class TestCrashHarness:
    def test_single_loss_point_recovers(self):
        harness = CrashConsistencyHarness(
            scaled_mlc2_geometry(32, scale=5),
            "ftl",
            SWLConfig(threshold=100, k=0),
            plan=FaultPlan(seed=1),
            seed=4,
            writes=200,
        )
        verdict = harness.run_once(150)
        assert verdict.crashed
        assert verdict.ok, verdict.violations
        assert verdict.writes_acked > 0
        assert verdict.mappings_recovered > 0
        assert verdict.bet_restored

    def test_loss_point_beyond_workload_never_fires(self):
        harness = CrashConsistencyHarness(
            scaled_mlc2_geometry(32, scale=5),
            "ftl",
            plan=FaultPlan(seed=1),
            seed=4,
            writes=50,
        )
        verdict = harness.run_once(10**9)
        assert not verdict.crashed
        assert verdict.ok, verdict.violations

    def test_sweep_is_deterministic(self):
        def run():
            harness = CrashConsistencyHarness(
                scaled_mlc2_geometry(32, scale=5),
                "nftl",
                plan=ACCEPTANCE_PLAN,
                seed=9,
                writes=120,
            )
            report = harness.sweep(range(40, 400, 90))
            return [
                (v.loss_point, v.crashed, v.writes_acked, v.retired_blocks)
                for v in report.verdicts
            ]

        assert run() == run()


class TestAcceptanceCampaign:
    """ISSUE acceptance: >= 50 loss points, fixed seed, zero violations."""

    @pytest.mark.parametrize("driver", ["ftl", "nftl"])
    def test_fifty_point_campaign_is_clean(self, driver):
        result = run_fault_campaign(
            scaled_mlc2_geometry(32, scale=5),
            driver,
            SWLConfig(threshold=100, k=0),
            plan=ACCEPTANCE_PLAN,
            seed=3,
            soak_writes=1500,
            loss_points=50,
        )
        assert len(result.crash_report.verdicts) == 50
        assert result.ok, result.violations
        # The campaign must actually have exercised the fault paths.
        assert result.injector_stats["erase_faults"] + result.injector_stats[
            "program_faults"
        ] > 0
        assert result.crash_report.crashes >= 45
        assert result.soak_writes > 0

    def test_unrecovered_fault_fails_the_gate(self, monkeypatch):
        # Simulate a driver that drops a recovery on the floor: a block
        # condemned by a fault but never retired must flip the campaign
        # verdict (and therefore the ``repro faults`` exit code).
        from repro.ftl.base import TranslationLayer

        monkeypatch.setattr(
            TranslationLayer,
            "failed_blocks",
            property(lambda self: frozenset({3})),
        )
        result = run_fault_campaign(
            scaled_mlc2_geometry(32, scale=5),
            "ftl",
            plan=ACCEPTANCE_PLAN,
            seed=3,
            soak_writes=200,
            loss_points=2,
        )
        assert not result.ok
        assert result.unrecovered_faults == 1
        assert any("unrecovered" in v for v in result.soak_violations)

    def test_soak_checks_the_retired_set(self, monkeypatch):
        # A retirement that never reaches the chip's bad-block table: the
        # soak runs the crash runs' checks, so it names the mismatch.
        from repro.flash.mtd import MtdDevice

        monkeypatch.setattr(MtdDevice, "mark_bad", lambda self, block: None)
        result = run_fault_campaign(
            scaled_mlc2_geometry(32, scale=5),
            "ftl",
            plan=ACCEPTANCE_PLAN,
            seed=3,
            soak_writes=400,
            loss_points=2,
        )
        assert result.retired_blocks > 0
        assert any(
            violation.startswith("retired set [")
            and violation.endswith("!= chip bad-block table []")
            for violation in result.soak_violations
        ), result.soak_violations
        assert not result.ok

    def test_campaign_report_roundtrip(self):
        from repro.sim.reporting import fault_campaign_report

        result = run_fault_campaign(
            scaled_mlc2_geometry(32, scale=5),
            "ftl",
            plan=ACCEPTANCE_PLAN,
            seed=3,
            soak_writes=400,
            loss_points=5,
        )
        document = fault_campaign_report(result)
        assert "Soak phase" in document
        assert "Power-loss sweep" in document
        assert ("PASS" in document) == result.ok
        as_dict = result.as_dict()
        assert as_dict["crash_loss_points"] == 5
        assert "inj_erase_faults" in as_dict
