"""Fault-tolerant campaign supervisor for experiment matrices.

:func:`run_supervised_matrix` runs each matrix cell in its own worker
process.  Two rules make it survive a long sweep without changing what
the sweep measures:

* **a cell directory holds one experiment** — ``cell-NNN/`` under
  ``policy.workdir`` keeps the cell's checkpoint image, its pickled
  result and an attempt-count sidecar (``state.json``).  The image and
  the result both record the cell's :func:`~repro.ckpt.runner.replay_identity`
  (spec, replay mode, base-trace digest); a rerun adopts them only under
  an equal identity.  One with another identity, or a damaged one, is
  discarded with a log line and the cell starts over at attempt 1.  So
  re-invoking the supervisor with the same workdir skips finished cells
  and resumes interrupted ones, and a changed matrix reruns exactly the
  cells that changed;
* **one retry rule** — a worker that crashes, is killed, raises, or writes
  no checkpoint image for ``policy.timeout`` seconds is retried by
  resuming its newest image with the same seed (or from zero when it has
  none), so the final result is bit-identical to an undisturbed run.  The
  simulator is deterministic: a cell that keeps failing is a bug to
  report, so after ``max_attempts`` it is **quarantined** — the campaign
  completes, the report flags the cell with its last error, and the other
  cells' results are delivered normally.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Sequence

from repro.ckpt.image import CheckpointError
from repro.ckpt.runner import (
    CheckpointPolicy,
    read_replay_image,
    replay_identity,
    spec_state,
)
from repro.fault.plan import FaultPlan
from repro.sim.engine import SimResult
from repro.sim.experiment import DEFAULT_REQUEST_CAP, ExperimentSpec, run_replay
from repro.traces.model import Request
from repro.util.diagnostics import get_logger

supervisor_log = get_logger("ckpt")

#: Test-only hooks, inherited by fork-started workers.  ``_disturbance``
#: runs at the top of every worker attempt; ``_checkpoint_observer`` runs
#: after every checkpoint image the worker writes.  Tests and the CI
#: kill-and-resume smoke use them to hang or SIGKILL specific attempts.
_disturbance: Callable[[int, int], None] | None = None
_checkpoint_observer: Callable[[int, int, int], None] | None = None


@dataclass(frozen=True)
class SupervisorPolicy:
    """Retry/timeout/persistence policy for :func:`run_supervised_matrix`.

    Parameters
    ----------
    workdir:
        Campaign scratch directory.  Each cell gets ``cell-NNN/`` with its
        checkpoint image, pickled result, and attempt-state sidecar; a
        rerun pointing at the same workdir resumes the campaign.
    max_attempts:
        Attempts per cell before quarantine (first run included).
    timeout:
        Seconds an attempt may go without writing a checkpoint image
        before it is killed; ``None`` never times out.  This bounds
        progress, not total time, so it must exceed the wall-clock of
        ``checkpoint_every_requests`` requests (plus worker start-up).
    checkpoint_every_requests:
        Cadence forwarded to each cell's :class:`CheckpointPolicy`.
    """

    workdir: str | Path
    max_attempts: int = 3
    timeout: float | None = None
    checkpoint_every_requests: int = 100_000

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")


@dataclass
class CellOutcome:
    """What happened to one matrix cell across all its attempts."""

    index: int
    label: str
    status: str  # "ok" | "quarantined"
    attempts: int
    result: SimResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class CampaignReport:
    """Per-cell outcomes of a supervised campaign, in spec order."""

    cells: list[CellOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no cell was quarantined."""
        return all(cell.ok for cell in self.cells)

    @property
    def quarantined(self) -> list[CellOutcome]:
        return [cell for cell in self.cells if not cell.ok]

    def results(self) -> list[SimResult | None]:
        """Results in spec order; ``None`` marks a quarantined cell."""
        return [cell.result for cell in self.cells]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _atomic_pickle(path: Path, payload: object) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _cell_worker(
    index: int,
    attempt: int,
    spec: ExperimentSpec,
    identity: dict[str, object],
    base_trace: Sequence[Request],
    horizon: float | None,
    warmup: Sequence[Request] | None,
    request_cap: int,
    fault_plan: FaultPlan | None,
    cell_dir: str,
    every_requests: int,
) -> None:
    """One attempt at one cell; exits 0 with ``result.pkl`` on success."""
    directory = Path(cell_dir)
    try:
        if _disturbance is not None:
            _disturbance(index, attempt)
        ckpt_path = directory / "checkpoint.ckpt"
        if _checkpoint_observer is not None:
            observer = _checkpoint_observer

            def on_checkpoint(count: int) -> None:
                observer(index, attempt, count)
        else:
            on_checkpoint = None

        result = run_replay(
            spec,
            base_trace,
            horizon,
            warmup=warmup,
            request_cap=request_cap,
            fault_plan=fault_plan,
            checkpoint=CheckpointPolicy(
                ckpt_path,
                every_requests=every_requests,
                on_checkpoint=on_checkpoint,
            ),
            resume_from=ckpt_path if ckpt_path.exists() else None,
        )
        _atomic_pickle(
            directory / "result.pkl",
            {"result": result, "identity": identity},
        )
    except BaseException as exc:  # report, then die nonzero
        try:
            (directory / "error.txt").write_text(
                "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                + "\n"
            )
        finally:
            raise


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class _CellState:
    index: int
    spec: ExperimentSpec
    identity: dict[str, object]
    directory: Path
    attempts: int = 0
    process: multiprocessing.process.BaseProcess | None = None
    deadline: float = float("inf")
    last_error: str | None = None
    outcome: CellOutcome | None = None

    @property
    def state_path(self) -> Path:
        return self.directory / "state.json"

    @property
    def result_path(self) -> Path:
        return self.directory / "result.pkl"

    @property
    def checkpoint_path(self) -> Path:
        return self.directory / "checkpoint.ckpt"

    def save_sidecar(self, status: str) -> None:
        tmp = self.state_path.with_name(self.state_path.name + ".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "attempts": self.attempts,
                    "status": status,
                    "error": self.last_error,
                },
                sort_keys=True,
            )
        )
        os.replace(tmp, self.state_path)

    def load_sidecar(self) -> None:
        if not self.state_path.exists():
            return
        try:
            state = json.loads(self.state_path.read_text())
            self.attempts = int(state.get("attempts", 0))
            self.last_error = state.get("error")
        except (ValueError, TypeError):
            # A torn sidecar only loses attempt history, never results.
            pass

    def discard(self, path: Path, why: object) -> None:
        supervisor_log.warning(
            "cell %d (%s): discarding %s: %s",
            self.index, self.spec.label(), path, why,
        )
        path.unlink(missing_ok=True)

    def load_result(self) -> CellOutcome | None:
        """Adopt the finished result on disk if it is this cell's."""
        if not self.result_path.exists():
            return None
        try:
            with open(self.result_path, "rb") as handle:
                payload = pickle.load(handle)
            if payload["identity"] == self.identity:
                return CellOutcome(
                    index=self.index,
                    label=self.spec.label(),
                    status="ok",
                    attempts=max(self.attempts, 1),
                    result=payload["result"],
                )
            why: object = "result of another experiment"
        except Exception as exc:
            why = exc
        self.discard(self.result_path, why)
        return None

    def claim(self) -> None:
        """Make the directory hold this cell's experiment and nothing else.

        A finished result is adopted; a foreign or damaged result or
        image is discarded, and the attempt history goes with it.
        """
        self.load_sidecar()
        stale = self.result_path.exists()
        self.outcome = self.load_result()
        if self.outcome is not None:
            supervisor_log.info(
                "cell %d (%s): adopting finished result from %s",
                self.index, self.spec.label(), self.result_path,
            )
            return
        if self.checkpoint_path.exists():
            try:
                read_replay_image(self.checkpoint_path, self.identity)
            except CheckpointError as exc:
                self.discard(self.checkpoint_path, exc)
                stale = True
        if stale:
            self.attempts, self.last_error = 0, None

    def last_checkpoint_at(self) -> float:
        """Wall-clock time the newest image landed (0 for none)."""
        try:
            return self.checkpoint_path.stat().st_mtime
        except FileNotFoundError:
            return 0.0


def _mp_context() -> multiprocessing.context.BaseContext:
    # fork keeps worker startup cheap and lets the test hooks above ride
    # into workers by inheritance; fall back where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def run_supervised_matrix(
    specs: Sequence[ExperimentSpec],
    base_trace: Sequence[Request],
    *,
    horizon: float | None = None,
    warmup: Sequence[Request] | None = None,
    request_cap: int = DEFAULT_REQUEST_CAP,
    fault_plan: FaultPlan | None = None,
    workers: int = 1,
    policy: SupervisorPolicy,
) -> CampaignReport:
    """Run a spec matrix under supervision; never raises for a failed cell.

    Semantics match :func:`repro.sim.experiment.run_matrix` (``horizon``
    selects first-failure vs fixed-horizon mode; one shared base trace),
    with durability on top — see the module docstring for the identity,
    retry and quarantine rules.  Returns a :class:`CampaignReport` in
    spec order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workdir = Path(policy.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    context = _mp_context()
    # Cells differ only in their spec: digest the shared traces once.
    shared = replay_identity(
        specs[0], base_trace, horizon=horizon, warmup=warmup,
        request_cap=request_cap, fault_plan=fault_plan,
    ) if specs else {}

    states: list[_CellState] = []
    for index, spec in enumerate(specs):
        directory = workdir / f"cell-{index:03d}"
        directory.mkdir(exist_ok=True)
        state = _CellState(
            index=index,
            spec=spec,
            identity={**shared, "spec": spec_state(spec)},
            directory=directory,
        )
        state.claim()
        states.append(state)

    pending = [state for state in states if state.outcome is None]
    running: list[_CellState] = []

    def launch(state: _CellState) -> None:
        state.attempts += 1
        state.save_sidecar("running")
        state.process = context.Process(
            target=_cell_worker,
            args=(
                state.index, state.attempts, state.spec, state.identity,
                base_trace, horizon, warmup, request_cap, fault_plan,
                str(state.directory), policy.checkpoint_every_requests,
            ),
            daemon=True,
        )
        state.process.start()
        if policy.timeout is not None:
            # Wall-clock, not monotonic: progress is read off image mtimes.
            state.deadline = time.time() + policy.timeout
        supervisor_log.info(
            "cell %d (%s): attempt %d/%d started",
            state.index, state.spec.label(), state.attempts,
            policy.max_attempts,
        )

    def settle(state: _CellState, timed_out: bool) -> None:
        state.outcome = state.load_result()
        if state.outcome is not None:
            # A complete result on disk is authoritative even if the
            # worker died after writing it (the write is atomic).
            state.save_sidecar("ok")
            return
        error_path = state.directory / "error.txt"
        if timed_out:
            detail = f"no checkpoint for {policy.timeout:g}s"
        elif error_path.exists():
            detail = error_path.read_text().strip()
        else:
            detail = f"worker exited with code {state.process.exitcode}"  # type: ignore[union-attr]
        error_path.unlink(missing_ok=True)
        state.last_error = f"attempt {state.attempts}: {detail}"
        if state.attempts < policy.max_attempts:
            pending.append(state)
            state.save_sidecar("retrying")
            return
        state.outcome = CellOutcome(
            index=state.index,
            label=state.spec.label(),
            status="quarantined",
            attempts=state.attempts,
            error=state.last_error,
        )
        state.save_sidecar("quarantined")
        supervisor_log.warning(
            "cell %d (%s): quarantined after %d attempts: %s",
            state.index, state.spec.label(), state.attempts,
            state.last_error,
        )

    while pending or running:
        while pending and len(running) < workers:
            state = pending.pop(0)
            launch(state)
            running.append(state)
        next_deadline = min(state.deadline for state in running)
        wait(
            [state.process.sentinel for state in running],  # type: ignore[union-attr]
            None if next_deadline == float("inf")
            else max(0.0, next_deadline - time.time()),
        )
        for state in list(running):
            process = state.process
            assert process is not None
            timed_out = False
            if process.is_alive():
                if time.time() < state.deadline:
                    continue
                # Past the deadline: spared only by an image that landed
                # less than ``timeout`` seconds ago.
                state.deadline = (
                    state.last_checkpoint_at() + policy.timeout  # type: ignore[operator]
                )
                if time.time() < state.deadline:
                    continue
                process.kill()
                timed_out = True
            process.join()
            running.remove(state)
            settle(state, timed_out)

    return CampaignReport(cells=[state.outcome for state in states])  # type: ignore[misc]
