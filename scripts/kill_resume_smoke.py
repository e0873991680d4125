#!/usr/bin/env python
"""CI smoke: SIGKILL a sweep worker mid-cell, resume, compare reports.

Runs a two-cell first-failure matrix three times:

1. a clean, unsupervised ``run_matrix`` — the reference;
2. under the campaign supervisor, with a hook that SIGKILLs the worker of
   cell 1 right after its second checkpoint image lands on disk;
3. under the supervisor again, in the same workdir, with cell 1's
   threshold changed.

The supervisor must retry the killed cell by resuming its checkpoint, and
the results must be **byte-identical** to the clean run (compared as
canonical ``SimResult.as_dict`` JSON — the markdown report is not the
comparison target because its supervision table legitimately differs in
attempt counts).  On the rerun, cell 0 is adopted and cell 1 — whose
result now belongs to another experiment — must run again and match a
clean ``run_matrix`` of its new spec.

Exits 0 on success, 1 with a diagnostic on any divergence.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
from dataclasses import replace

from repro.ckpt import SupervisorPolicy, run_supervised_matrix
import repro.ckpt.supervisor as supervisor_module
from repro.core.config import SWLConfig
from repro.sim.experiment import (
    ExperimentSpec,
    run_matrix,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.generator import MobilePCWorkload

KILL_CELL = 1


def build_matrix() -> list[ExperimentSpec]:
    geometry = scaled_mlc2_geometry(24, scale=100)
    return [
        ExperimentSpec("ftl", geometry, None, seed=7),
        ExperimentSpec(
            "ftl", geometry, SWLConfig(enabled=True, threshold=10, k=0), seed=7
        ),
    ]


def canonical(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True, separators=(",", ":"))


def kill_after_second_checkpoint(index: int, attempt: int, count: int) -> None:
    if index == KILL_CELL and attempt == 1 and count >= 2:
        print(
            f"[smoke] SIGKILLing cell {index} attempt {attempt} "
            f"after checkpoint {count}",
            flush=True,
        )
        os.kill(os.getpid(), signal.SIGKILL)


def main() -> int:
    specs = build_matrix()
    params = workload_params_for(specs[0], duration=1200.0, seed=3)
    trace = MobilePCWorkload(params).requests()

    print("[smoke] clean reference run ...", flush=True)
    clean = run_matrix(specs, trace)

    changed = replace(
        specs[KILL_CELL], swl=SWLConfig(enabled=True, threshold=5, k=0)
    )
    print(f"[smoke] clean reference run of {changed.label()} ...", flush=True)
    (clean_changed,) = run_matrix([changed], trace)

    with tempfile.TemporaryDirectory(prefix="kill-resume-smoke-") as workdir:
        policy = SupervisorPolicy(
            workdir=workdir, max_attempts=3, checkpoint_every_requests=2_000
        )
        print("[smoke] supervised run with mid-cell SIGKILL ...", flush=True)
        supervisor_module._checkpoint_observer = kill_after_second_checkpoint
        report = run_supervised_matrix(specs, trace, workers=2, policy=policy)
        supervisor_module._checkpoint_observer = None

        print(f"[smoke] rerun of the same workdir with cell {KILL_CELL} "
              f"as {changed.label()} ...", flush=True)
        specs[KILL_CELL] = changed
        rerun = run_supervised_matrix(specs, trace, workers=2, policy=policy)

    failures: list[str] = []
    if not report.ok:
        failures.append(
            f"campaign not ok: {[c.error for c in report.quarantined]}"
        )
    killed = report.cells[KILL_CELL]
    if killed.attempts != 2:
        failures.append(
            f"killed cell ran {killed.attempts} attempt(s), expected 2 "
            "(one kill, one resume)"
        )
    for index, (reference, outcome) in enumerate(
        zip(clean, report.results())
    ):
        if outcome is None:
            failures.append(f"cell {index} produced no result")
        elif canonical(reference) != canonical(outcome):
            failures.append(
                f"cell {index} diverged from the clean run after resume"
            )
    if not rerun.ok or [cell.attempts for cell in rerun.cells] != [1, 1]:
        failures.append(
            "rerun with a changed cell: expected cell 0 adopted and cell "
            f"{KILL_CELL} rerun once, got attempts "
            f"{[cell.attempts for cell in rerun.cells]} "
            f"({[cell.error for cell in rerun.quarantined]})"
        )
    elif canonical(rerun.results()[0]) != canonical(clean[0]):
        failures.append("rerun: adopted cell 0 diverged from the clean run")
    elif canonical(rerun.results()[KILL_CELL]) != canonical(clean_changed):
        failures.append(
            f"rerun: cell {KILL_CELL} is not the clean result of "
            f"{changed.label()}"
        )

    for failure in failures:
        print(f"[smoke] FAIL: {failure}", flush=True)
    if failures:
        return 1
    print(
        f"[smoke] PASS: killed worker resumed after "
        f"{killed.attempts - 1} retry; all {len(clean)} cells "
        "byte-identical to the clean run; the changed cell reran and "
        "matches its own clean run",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
