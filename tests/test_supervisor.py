"""Campaign supervisor: retry, resume, quarantine, and the partial report.

These tests inject real process-level failures — SIGKILL mid-cell, hung
workers — through the supervisor's fork-inherited test hooks, and assert
the campaign completes with results bit-identical to an undisturbed run
(crash path) or with deterministically rotated retry seeds (hang path).
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

import repro.ckpt.supervisor as supervisor_module
from repro.ckpt import (
    CampaignReport,
    SupervisorPolicy,
    retry_seed,
    run_supervised_matrix,
)
from repro.core.config import SWLConfig
from repro.sim.experiment import (
    ExperimentSpec,
    make_base_trace,
    run_matrix,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.sim.reporting import campaign_markdown_report


def specs_pair() -> list[ExperimentSpec]:
    geometry = scaled_mlc2_geometry(24, scale=100)
    return [
        ExperimentSpec("ftl", geometry, None, seed=7),
        ExperimentSpec(
            "ftl", geometry, SWLConfig(enabled=True, threshold=10, k=0), seed=7
        ),
    ]


@pytest.fixture(scope="module")
def shared_trace():
    params = workload_params_for(specs_pair()[0], duration=1200.0, seed=3)
    return make_base_trace(params)


@pytest.fixture(scope="module")
def clean_results(shared_trace):
    return run_matrix(specs_pair(), shared_trace)


def fast_policy(workdir, **overrides) -> SupervisorPolicy:
    defaults = dict(
        workdir=workdir,
        max_attempts=3,
        backoff=0.01,
        checkpoint_every_requests=2_000,
        poll_interval=0.02,
    )
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


def as_blob(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


class TestSupervisedMatrix:
    def test_undisturbed_matches_run_matrix(
        self, shared_trace, clean_results, tmp_path
    ):
        report = run_supervised_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(tmp_path / "camp"),
        )
        assert report.ok
        assert [cell.attempts for cell in report.cells] == [1, 1]
        assert [as_blob(r) for r in report.results()] == [
            as_blob(r) for r in clean_results
        ]

    def test_sigkilled_worker_resumes_bit_identically(
        self, shared_trace, clean_results, tmp_path, monkeypatch
    ):
        def kill_first_attempt(index, attempt, count):
            if index == 1 and attempt == 1 and count >= 2:
                os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(
            supervisor_module, "_checkpoint_observer", kill_first_attempt
        )
        report = run_supervised_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(tmp_path / "camp"),
        )
        assert report.ok
        killed = report.cells[1]
        assert killed.attempts == 2
        # The retry resumed the checkpoint — same seed, not a rotated one.
        assert killed.seeds == [7, 7]
        assert [as_blob(r) for r in report.results()] == [
            as_blob(r) for r in clean_results
        ]

    def test_hung_worker_is_killed_and_reseeded(
        self, shared_trace, tmp_path, monkeypatch
    ):
        def hang_first_attempt(index, attempt):
            if index == 0 and attempt == 1:
                time.sleep(3600)

        monkeypatch.setattr(
            supervisor_module, "_disturbance", hang_first_attempt
        )
        # The test waits out the timeout once, so it is set from the floor:
        # an undisturbed attempt (worker start-up plus one cell) takes
        # 0.5-1 s here, and a healthy attempt that overran would be killed
        # too and show up as a third attempt.
        report = run_supervised_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(tmp_path / "camp", timeout=4.0),
        )
        assert report.ok
        hung = report.cells[0]
        assert hung.attempts == 2
        # A hang retries from scratch with the derived attempt-2 seed.
        assert hung.seeds == [7, retry_seed(7, 2)]
        assert hung.result is not None

    def test_exhausted_retries_quarantine_not_raise(
        self, shared_trace, tmp_path, monkeypatch
    ):
        def always_die(index, attempt):
            if index == 0:
                raise RuntimeError("synthetic failure")

        monkeypatch.setattr(supervisor_module, "_disturbance", always_die)
        report = run_supervised_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(tmp_path / "camp", max_attempts=2),
        )
        assert not report.ok
        bad, good = report.cells
        assert bad.status == "quarantined"
        assert bad.attempts == 2
        assert "synthetic failure" in (bad.error or "")
        assert bad.result is None
        assert good.ok and good.result is not None
        assert report.results()[0] is None

    def test_restarted_supervisor_adopts_finished_cells(
        self, shared_trace, clean_results, tmp_path, monkeypatch
    ):
        # First campaign: one cell quarantined, the other finished.
        def always_die(index, attempt):
            if index == 0:
                raise RuntimeError("boom")

        monkeypatch.setattr(supervisor_module, "_disturbance", always_die)
        workdir = tmp_path / "camp"
        first = run_supervised_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(workdir, max_attempts=1),
        )
        assert not first.ok

        # Second campaign over the same workdir: the finished cell is
        # adopted from disk (attempt counter does not advance), and the
        # quarantined one gets fresh attempts now that the fault cleared —
        # continuing the attempt numbering recorded in its sidecar, so the
        # retry runs with the deterministically rotated attempt-2 seed.
        monkeypatch.setattr(supervisor_module, "_disturbance", None)
        second = run_supervised_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(workdir),
        )
        assert second.ok
        assert second.cells[1].attempts == 1
        assert as_blob(second.results()[1]) == as_blob(clean_results[1])
        revived = second.cells[0]
        assert revived.attempts == 2
        assert revived.seeds == [7, retry_seed(7, 2)]
        assert revived.result is not None

    def test_run_matrix_policy_delegates_to_supervisor(
        self, shared_trace, clean_results, tmp_path, monkeypatch
    ):
        def always_die(index, attempt):
            if index == 0:
                raise RuntimeError("boom")

        monkeypatch.setattr(supervisor_module, "_disturbance", always_die)
        results = run_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(tmp_path / "camp", max_attempts=2),
        )
        assert results[0] is None
        assert as_blob(results[1]) == as_blob(clean_results[1])


class TestRetrySeeds:
    def test_deterministic_and_distinct(self):
        assert retry_seed(7, 2) == retry_seed(7, 2)
        seeds = {retry_seed(7, attempt) for attempt in range(2, 10)}
        assert len(seeds) == 8
        assert 7 not in seeds
        assert retry_seed(7, 2) != retry_seed(8, 2)


class TestCampaignMarkdown:
    def test_report_logs_attempts_and_quarantine(
        self, shared_trace, tmp_path, monkeypatch
    ):
        def always_die(index, attempt):
            if index == 0:
                raise RuntimeError("synthetic failure")

        monkeypatch.setattr(supervisor_module, "_disturbance", always_die)
        report = run_supervised_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(tmp_path / "camp", max_attempts=2),
        )
        document = campaign_markdown_report(report, title="Sweep under test")
        assert "# Sweep under test" in document
        assert "## Supervision" in document
        assert "1/2 cells finished; 1 quarantined" in document
        assert "| Attempts |" in document
        assert "**quarantined** | 2 |" in document
        assert "## Quarantined cells" in document
        assert "synthetic failure" in document
        # The surviving cell still gets the full per-run body.
        assert "## Summary" in document
        assert report.cells[1].label in document

    def test_all_ok_report_has_no_quarantine_section(self, tmp_path):
        # Render-only check with a synthetic finished campaign.
        from repro.ckpt.supervisor import CellOutcome
        from repro.sim.experiment import run_until_first_failure

        spec = specs_pair()[0]
        params = workload_params_for(spec, duration=1200.0, seed=3)
        trace = make_base_trace(params)
        result = run_until_first_failure(spec, trace)
        report = CampaignReport(cells=[
            CellOutcome(
                index=0, label=spec.label(), status="ok",
                attempts=1, seeds=[7], result=result,
            )
        ])
        document = campaign_markdown_report(report)
        assert "## Quarantined cells" not in document
        assert "1/1 cells finished" in document
