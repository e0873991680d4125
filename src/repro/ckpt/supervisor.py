"""Fault-tolerant campaign supervisor for experiment matrices.

:func:`run_supervised_matrix` runs each matrix cell in its own worker
process and survives the failure modes a long sweep actually hits:

* **crashes / kills** — a worker that dies mid-cell (OOM kill, SIGKILL,
  unhandled exception) is retried; because every cell checkpoints through
  :func:`repro.ckpt.runner.run_resumable`, the retry *resumes* from the
  last image with the same seed, so the final result is bit-identical to
  an undisturbed run;
* **hangs** — a worker that exceeds the per-attempt timeout is killed and
  retried with a **fresh deterministic seed** (:func:`retry_seed`): a
  livelock is usually seed-dependent, so replaying the same checkpoint
  would hang again.  The stale checkpoint is discarded;
* **supervisor restarts** — per-cell results and attempt counts persist
  under ``policy.workdir`` (``cell-NNN/result.pkl``, ``state.json``), so
  re-invoking the supervisor with the same workdir skips finished cells
  and resumes interrupted ones instead of starting over;
* **exhausted retries** — a cell that fails ``max_attempts`` times is
  **quarantined**: the campaign completes, the report flags the cell with
  its attempt history and last error, and the remaining cells' results
  are delivered normally instead of the whole sweep raising.

Retries back off exponentially (``backoff * 2**(attempt-1)`` seconds)
without blocking other cells.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import random
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.ckpt.image import CheckpointError
from repro.ckpt.runner import CheckpointPolicy, resume_spec, run_resumable
from repro.fault.plan import FaultPlan
from repro.sim.engine import SimResult
from repro.sim.experiment import DEFAULT_REQUEST_CAP, ExperimentSpec
from repro.traces.model import Request
from repro.util.diagnostics import get_logger

supervisor_log = get_logger("ckpt")

#: Test-only hooks, inherited by fork-started workers.  ``_disturbance``
#: runs at the top of every worker attempt; ``_checkpoint_observer`` runs
#: after every checkpoint image the worker writes.  Tests and the CI
#: kill-and-resume smoke use them to hang or SIGKILL specific attempts.
_disturbance: Callable[[int, int], None] | None = None
_checkpoint_observer: Callable[[int, int, int], None] | None = None


def retry_seed(seed: int, attempt: int) -> int:
    """Fresh deterministic seed for retry ``attempt`` (2, 3, ...) of a cell.

    Mirrors the derived-stream idiom used for per-shard fault plans
    (:meth:`~repro.fault.plan.FaultPlan.for_shard`): the new seed is a
    pure function of the original seed and the attempt number, so a rerun
    of the whole campaign retries with the same seeds.
    """
    return random.Random(f"{seed}:retry{attempt}").getrandbits(48)


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
        Wall-clock seconds per attempt; ``None`` never times out.
    backoff:
        Base retry delay; attempt ``n`` waits ``backoff * 2**(n-1)``.
    checkpoint_every_requests:
        Cadence forwarded to each cell's :class:`CheckpointPolicy`.
    poll_interval:
        Supervisor polling granularity in seconds.
    """

    workdir: str | Path
    max_attempts: int = 3
    timeout: float | None = None
    backoff: float = 0.5
    checkpoint_every_requests: int = 100_000
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")


@dataclass
class CellOutcome:
    """What happened to one matrix cell across all its attempts."""

    index: int
    label: str
    status: str  # "ok" | "quarantined"
    attempts: int
    seeds: list[int]
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
    base_trace: Sequence[Request],
    horizon: float | None,
    warmup: list[Request] | None,
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
        resume_from: Path | None = None
        run_spec = spec
        if ckpt_path.exists():
            try:
                run_spec = resume_spec(spec, ckpt_path)
                resume_from = ckpt_path
            except CheckpointError:
                # A corrupt or foreign image never blocks the retry — the
                # cell simply restarts from scratch with its given seed.
                ckpt_path.unlink(missing_ok=True)
        if _checkpoint_observer is not None:
            observer = _checkpoint_observer

            def on_checkpoint(count: int) -> None:
                observer(index, attempt, count)
        else:
            on_checkpoint = None

        result = run_resumable(
            run_spec,
            base_trace,
            horizon=horizon,
            warmup=warmup,
            request_cap=request_cap,
            fault_plan=fault_plan,
            checkpoint=CheckpointPolicy(
                ckpt_path,
                every_requests=every_requests,
                on_checkpoint=on_checkpoint,
            ),
            resume_from=resume_from,
            label=spec.label(),
        )
        _atomic_pickle(
            directory / "result.pkl",
            {"result": result, "seed": run_spec.seed},
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
    directory: Path
    attempts: int = 0
    seeds: list[int] = field(default_factory=list)
    not_before: float = 0.0
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

    def save_sidecar(self, status: str) -> None:
        tmp = self.state_path.with_name(self.state_path.name + ".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "attempts": self.attempts,
                    "seeds": self.seeds,
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
            self.seeds = [int(seed) for seed in state.get("seeds", [])]
            self.last_error = state.get("error")
        except (ValueError, TypeError):
            # A torn sidecar only loses attempt history, never results.
            pass


def _load_result(state: _CellState) -> CellOutcome | None:
    """Adopt a finished result from disk, if one exists and loads."""
    if not state.result_path.exists():
        return None
    try:
        with open(state.result_path, "rb") as handle:
            payload = pickle.load(handle)
        return CellOutcome(
            index=state.index,
            label=state.spec.label(),
            status="ok",
            attempts=max(state.attempts, 1),
            seeds=state.seeds or [payload["seed"]],
            result=payload["result"],
        )
    except Exception:
        state.result_path.unlink(missing_ok=True)
        return None


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
    warmup: list[Request] | None = None,
    request_cap: int = DEFAULT_REQUEST_CAP,
    fault_plan: FaultPlan | None = None,
    workers: int = 1,
    policy: SupervisorPolicy,
) -> CampaignReport:
    """Run a spec matrix under supervision; never raises for a failed cell.

    Semantics match :func:`repro.sim.experiment.run_matrix` (``horizon``
    selects first-failure vs fixed-horizon mode; one shared base trace),
    with durability on top — see the module docstring for the retry,
    resume, and quarantine rules.  Returns a :class:`CampaignReport` in
    spec order.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workdir = Path(policy.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    context = _mp_context()

    states: list[_CellState] = []
    for index, spec in enumerate(specs):
        directory = workdir / f"cell-{index:03d}"
        directory.mkdir(exist_ok=True)
        state = _CellState(index=index, spec=spec, directory=directory)
        state.load_sidecar()
        state.outcome = _load_result(state)
        if state.outcome is not None:
            supervisor_log.info(
                "cell %d (%s): adopting finished result from %s",
                index, spec.label(), state.result_path,
            )
        states.append(state)

    pending = [state for state in states if state.outcome is None]
    running: list[_CellState] = []

    def launch(state: _CellState) -> None:
        state.attempts += 1
        attempt = state.attempts
        spec = state.spec
        if attempt > 1 and not (state.directory / "checkpoint.ckpt").exists():
            # No image to resume — rotate to a fresh deterministic seed.
            spec = replace(spec, seed=retry_seed(state.spec.seed, attempt))
        state.seeds.append(spec.seed)
        state.save_sidecar("running")
        state.process = context.Process(
            target=_cell_worker,
            args=(
                state.index, attempt, spec, base_trace, horizon, warmup,
                request_cap, fault_plan, str(state.directory),
                policy.checkpoint_every_requests,
            ),
            daemon=True,
        )
        state.process.start()
        state.deadline = (
            time.monotonic() + policy.timeout
            if policy.timeout is not None else float("inf")
        )
        supervisor_log.info(
            "cell %d (%s): attempt %d/%d started (seed %d)",
            state.index, state.spec.label(), attempt,
            policy.max_attempts, spec.seed,
        )

    def settle_failure(state: _CellState, reason: str, *, hung: bool) -> None:
        state.last_error = reason
        if hung:
            # A livelock is usually seed-dependent; resuming the same
            # checkpoint would hang again, so the next attempt restarts
            # from scratch with a rotated seed.
            (state.directory / "checkpoint.ckpt").unlink(missing_ok=True)
        if state.attempts >= policy.max_attempts:
            state.outcome = CellOutcome(
                index=state.index,
                label=state.spec.label(),
                status="quarantined",
                attempts=state.attempts,
                seeds=list(state.seeds),
                error=reason,
            )
            state.save_sidecar("quarantined")
            supervisor_log.warning(
                "cell %d (%s): quarantined after %d attempts: %s",
                state.index, state.spec.label(), state.attempts, reason,
            )
        else:
            state.not_before = (
                time.monotonic() + policy.backoff * 2 ** (state.attempts - 1)
            )
            pending.append(state)
            state.save_sidecar("retrying")

    while pending or running:
        now = time.monotonic()
        for state in [s for s in pending if s.not_before <= now]:
            if len(running) >= workers:
                break
            pending.remove(state)
            launch(state)
            running.append(state)

        time.sleep(policy.poll_interval)
        now = time.monotonic()
        for state in list(running):
            process = state.process
            assert process is not None
            if process.is_alive():
                if now >= state.deadline:
                    process.kill()
                    process.join()
                    running.remove(state)
                    settle_failure(
                        state,
                        f"attempt {state.attempts} timed out after "
                        f"{policy.timeout:.1f}s",
                        hung=True,
                    )
                continue
            process.join()
            running.remove(state)
            outcome = _load_result(state)
            if outcome is not None:
                # A complete result on disk is authoritative even if the
                # worker died after writing it (the write is atomic).
                state.outcome = outcome
                state.save_sidecar("ok")
                continue
            error_path = state.directory / "error.txt"
            detail = (
                error_path.read_text().strip()
                if error_path.exists()
                else f"worker exited with code {process.exitcode}"
            )
            error_path.unlink(missing_ok=True)
            settle_failure(
                state, f"attempt {state.attempts}: {detail}", hung=False
            )

    report = CampaignReport(cells=[state.outcome for state in states])  # type: ignore[misc]
    return report
