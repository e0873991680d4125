"""Campaign supervisor: retry, resume, quarantine, and the partial report.

These tests inject real process-level failures — SIGKILL mid-cell, hung
workers — through the supervisor's fork-inherited test hooks, and assert
the campaign completes with results bit-identical to an undisturbed run.
A workdir left behind by another experiment, or a damaged image, must
never leak into a cell's result.
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
    run_supervised_matrix,
    write_image,
)
from repro.core.config import SWLConfig
from repro.sim.experiment import (
    ExperimentSpec,
    run_matrix,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.sim.reporting import campaign_markdown_report
from repro.traces.generator import MobilePCWorkload


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
    return MobilePCWorkload(params).requests()


@pytest.fixture(scope="module")
def clean_results(shared_trace):
    return run_matrix(specs_pair(), shared_trace)


def fast_policy(workdir, **overrides) -> SupervisorPolicy:
    defaults = dict(
        workdir=workdir,
        max_attempts=3,
        checkpoint_every_requests=2_000,
    )
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


def as_blob(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


class TestSupervisedMatrix:
    def test_undisturbed_matches_run_matrix(
        self, shared_trace, clean_results, tmp_path
    ):
        # Each cell runs ~0.5 s and writes an image every ~0.02 s: the
        # timeout bounds the gap between images, not the attempt.
        report = run_supervised_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(tmp_path / "camp", timeout=0.3),
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
        assert [as_blob(r) for r in report.results()] == [
            as_blob(r) for r in clean_results
        ]

    def test_hung_worker_is_killed_and_resumed(
        self, shared_trace, clean_results, tmp_path, monkeypatch
    ):
        def hang_first_attempt(index, attempt):
            if index == 0 and attempt == 1:
                time.sleep(3600)

        monkeypatch.setattr(
            supervisor_module, "_disturbance", hang_first_attempt
        )
        # The timeout bounds the gap between checkpoint images, not the
        # attempt: a healthy cell here writes its first image within
        # ~0.02 s and one every ~0.03 s after, so 0.5 s only ever fires
        # on the hang.
        report = run_supervised_matrix(
            specs_pair(), shared_trace, workers=2,
            policy=fast_policy(tmp_path / "camp", timeout=0.5),
        )
        assert report.ok
        hung = report.cells[0]
        assert hung.attempts == 2
        # Same seed, so the retry lands on the undisturbed result.
        assert as_blob(hung.result) == as_blob(clean_results[0])

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
        # continuing the attempt numbering recorded in its sidecar, with
        # the spec's own seed.
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
        assert as_blob(revived.result) == as_blob(clean_results[0])


class TestCellIdentity:
    """A cell directory holds one experiment: anything else is discarded."""

    def test_stale_result_is_not_adopted(
        self, shared_trace, clean_results, tmp_path
    ):
        baseline, swl = specs_pair()
        workdir = tmp_path / "camp"
        run_supervised_matrix([baseline], shared_trace, policy=fast_policy(workdir))
        report = run_supervised_matrix(
            [swl], shared_trace, policy=fast_policy(workdir)
        )
        assert report.ok
        assert report.cells[0].attempts == 1
        assert as_blob(report.results()[0]) == as_blob(clean_results[1])

    def test_stale_checkpoint_is_discarded(
        self, shared_trace, clean_results, tmp_path, monkeypatch
    ):
        def kill_mid_run(index, attempt, count):
            if count >= 2:
                os.kill(os.getpid(), signal.SIGKILL)

        baseline, swl = specs_pair()
        workdir = tmp_path / "camp"
        monkeypatch.setattr(
            supervisor_module, "_checkpoint_observer", kill_mid_run
        )
        killed = run_supervised_matrix(
            [baseline], shared_trace,
            policy=fast_policy(workdir, max_attempts=1),
        )
        assert not killed.ok
        assert (workdir / "cell-000" / "checkpoint.ckpt").exists()

        monkeypatch.setattr(supervisor_module, "_checkpoint_observer", None)
        report = run_supervised_matrix(
            [swl], shared_trace, policy=fast_policy(workdir)
        )
        assert report.ok
        assert report.cells[0].attempts == 1
        assert as_blob(report.results()[0]) == as_blob(clean_results[1])

    def test_truncated_checkpoint_is_discarded(
        self, shared_trace, clean_results, tmp_path
    ):
        image = tmp_path / "camp" / "cell-000" / "checkpoint.ckpt"
        image.parent.mkdir(parents=True)
        write_image(image, {"kind": "replay", "padding": list(range(100))})
        image.write_bytes(image.read_bytes()[:-5])
        report = run_supervised_matrix(
            specs_pair()[:1], shared_trace,
            policy=fast_policy(tmp_path / "camp"),
        )
        assert report.ok
        assert report.cells[0].attempts == 1
        assert as_blob(report.results()[0]) == as_blob(clean_results[0])


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
        trace = MobilePCWorkload(params).requests()
        result = run_until_first_failure(spec, trace)
        report = CampaignReport(cells=[
            CellOutcome(
                index=0, label=spec.label(), status="ok",
                attempts=1, result=result,
            )
        ])
        document = campaign_markdown_report(report)
        assert "## Quarantined cells" not in document
        assert "1/1 cells finished" in document
