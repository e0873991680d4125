"""Resumable replay: periodic checkpoints of the full simulator stack.

:func:`run_resumable` is :func:`~repro.sim.experiment.run_until_first_failure`
/ :func:`~repro.sim.experiment.run_fixed_horizon` with durability: it
hands :meth:`~repro.sim.engine.Simulator.run` the same resampled endless
trace the plain runners do, from a generator that between segments can
freeze the whole stack — chip wear state, FTL/NFTL tables, SW Leveler +
BET, every RNG stream, fault-plan cursors, the engine's bookkeeping, and
the resampler's position — into one CRC-guarded image
(:mod:`repro.ckpt.image`).

The resume contract is exact: a replay interrupted at any checkpoint and
resumed from it produces a :meth:`~repro.sim.engine.SimResult.as_dict`
byte-identical to the uninterrupted run.  Two design choices make that
cheap to guarantee:

* checkpoints are only taken at *segment boundaries*, where no request,
  procedure, or suspension is in flight — ``segments_emitted`` plus the
  resampler RNG state then fully determine every future request;
* a restore target is a freshly *built* stack (same spec, same wiring)
  whose state is overwritten in place, so object graphs never need to be
  pickled — every component contributes a JSON-friendly
  ``snapshot_state()`` and a validating ``restore_state()``.

A checkpoint also pins the configuration that produced it
(:func:`replay_identity`: spec, replay mode, base-trace digest);
:func:`run_resumable` refuses to resume into a different one with
:class:`~repro.ckpt.image.CheckpointMismatchError`.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.ckpt.image import (
    CheckpointMismatchError,
    read_image,
    write_image,
)
from repro.sim.engine import SimResult, Simulator, StopCondition
from repro.sim.experiment import DEFAULT_REQUEST_CAP, ExperimentSpec
from repro.traces.extend import SegmentResampler
from repro.fault.plan import FaultPlan
from repro.traces.model import Request
from repro.util.diagnostics import get_logger
from repro.util.rng import make_rng, spawn_rng

ckpt_log = get_logger("ckpt")


class ReplayInterrupted(RuntimeError):
    """Raised by the ``crash_after`` test hook right after a checkpoint.

    The image on disk is then exactly the state the exception interrupted,
    which is what crash/resume tests and the CI kill-and-resume smoke use
    to simulate dying mid-run at a known-durable instant.
    """


@dataclass(frozen=True)
class CheckpointPolicy:
    """Where and how often :func:`run_resumable` checkpoints.

    Parameters
    ----------
    path:
        Image destination (atomically replaced on every checkpoint).
    every_requests:
        Request-count cadence, enforced at segment boundaries: a new
        image is written at the first boundary where at least this many
        requests completed since the previous one.  The first boundary
        (before any segment) always gets an image, so even a run killed
        in its first segment resumes instead of rerunning its warmup.
    crash_after:
        Testing hook: raise :class:`ReplayInterrupted` immediately after
        writing this many checkpoints.  ``None`` (default) never raises.
    on_checkpoint:
        Observer called with the running checkpoint count right after
        each image lands on disk.  The campaign supervisor's tests and
        the CI kill-and-resume smoke hang or SIGKILL workers from here —
        at an instant where a durable image is guaranteed to exist.
    """

    path: str | Path
    every_requests: int = 100_000
    crash_after: int | None = None
    on_checkpoint: "Callable[[int], None] | None" = None

    def __post_init__(self) -> None:
        if self.every_requests <= 0:
            raise ValueError(
                f"every_requests must be positive, got {self.every_requests}"
            )
        if self.crash_after is not None and self.crash_after <= 0:
            raise ValueError(
                f"crash_after must be positive, got {self.crash_after}"
            )


# ----------------------------------------------------------------------
# Configuration fingerprints
# ----------------------------------------------------------------------
def spec_state(spec: ExperimentSpec) -> dict[str, object]:
    """JSON-friendly identity of a spec; pins a checkpoint to its config."""
    geometry = spec.geometry
    return {
        "driver": spec.driver,
        "geometry": {
            "name": geometry.name,
            "num_blocks": geometry.num_blocks,
            "pages_per_block": geometry.pages_per_block,
            "page_size": geometry.page_size,
            "endurance": geometry.endurance,
            "cell_type": geometry.cell_type.name,
        },
        # One fingerprint shape for every mechanism: kind plus all knobs.
        "swl": None if spec.swl is None else asdict(spec.swl),
        "op_ratio": spec.op_ratio,
        "alloc_policy": spec.alloc_policy,
        "seed": spec.seed,
        "channels": spec.channels,
        "striping": spec.striping,
        "swl_scope": spec.swl_scope,
    }


def fault_plan_state(plan: FaultPlan | None) -> dict[str, object] | None:
    """JSON-friendly identity of a fault plan (``None`` for no faults)."""
    if plan is None:
        return None
    return {
        "seed": plan.seed,
        "erase_fail_prob": plan.erase_fail_prob,
        "erase_weibull_shape": plan.erase_weibull_shape,
        "program_fail_prob": plan.program_fail_prob,
        "read_ber": plan.read_ber,
        "ecc_correctable_bits": plan.ecc_correctable_bits,
        "read_retry_limit": plan.read_retry_limit,
        "power_loss_at": list(plan.power_loss_at),
        "torn_writes": plan.torn_writes,
    }


def trace_digest(trace: Sequence[Request] | None) -> str | None:
    """Content digest of a trace; rejects resuming onto different requests."""
    if trace is None:
        return None
    digest = hashlib.sha256()
    for request in trace:
        digest.update(
            f"{request.time!r}|{request.op.value}|{request.lba}|"
            f"{request.sectors}\n".encode()
        )
    return digest.hexdigest()


def replay_identity(
    spec: ExperimentSpec,
    base_trace: Sequence[Request],
    *,
    horizon: float | None = None,
    warmup: Sequence[Request] | None = None,
    request_cap: int = DEFAULT_REQUEST_CAP,
    skip_reads: bool = True,
    fault_plan: FaultPlan | None = None,
) -> dict[str, object]:
    """The configuration a replay's result belongs to.

    Spec, replay mode and base-trace digest: every checkpoint image pins
    it, and the campaign supervisor adopts a cell's image or result only
    under an equal one.  The code revision is not part of it.
    """
    return {
        "spec": spec_state(spec),
        "mode": {
            "horizon": horizon,
            "request_cap": request_cap,
            "skip_reads": skip_reads,
            "fault_plan": fault_plan_state(fault_plan),
            "warmup_sha256": trace_digest(warmup),
        },
        "trace_sha256": trace_digest(base_trace),
    }


def read_replay_image(
    path: str | Path, identity: dict[str, object]
) -> dict[str, object]:
    """Read a replay checkpoint and check it belongs to ``identity``.

    Raises a :class:`~repro.ckpt.image.CheckpointError`: the image's own
    error for a damaged one, :class:`CheckpointMismatchError` for one
    written by another configuration.
    """
    payload = read_image(path)
    if payload.get("kind") != "replay":
        raise CheckpointMismatchError(
            f"{path}: image holds a {payload.get('kind')!r} payload, "
            "expected a replay checkpoint"
        )
    for key, expected in identity.items():
        if payload.get(key) != expected:
            raise CheckpointMismatchError(
                f"{path}: checkpoint {key} {payload.get(key)!r} does not "
                f"match this run's {expected!r}"
            )
    return payload


# ----------------------------------------------------------------------
# The resumable replay loop
# ----------------------------------------------------------------------
def run_resumable(
    spec: ExperimentSpec,
    base_trace: Sequence[Request],
    *,
    horizon: float | None = None,
    warmup: list[Request] | None = None,
    request_cap: int = DEFAULT_REQUEST_CAP,
    skip_reads: bool = True,
    fault_plan: FaultPlan | None = None,
    checkpoint: CheckpointPolicy | None = None,
    resume_from: str | Path | None = None,
) -> SimResult:
    """Replay a spec with optional checkpointing and/or resumption.

    ``horizon=None`` runs until the first block wears out (Figure 5 mode);
    otherwise the replay covers ``horizon`` simulated seconds (Table 4
    mode).  Both match the plain runners request for request.

    ``resume_from`` restores a checkpoint image written by a previous
    invocation with the same spec, mode, and base trace (validated; a
    mismatch raises :class:`~repro.ckpt.image.CheckpointMismatchError`)
    and continues the replay exactly where the image froze it.  The
    warmup is *not* replayed on resume — its effects are part of the
    restored state.

    ``checkpoint`` enables periodic images per :class:`CheckpointPolicy`;
    checkpointing changes no RNG stream and no replay decision, so a
    checkpointed run returns the same result as an uncheckpointed one.
    """
    stop = StopCondition(
        until_first_failure=horizon is None,
        max_time=horizon,
        max_requests=request_cap,
    )
    # Digesting a one-day base trace (327,075 requests) costs about 0.45 s
    # on a Xeon core, as much as replaying hours of it, and only an image
    # ever reads the digests.
    identity = (
        replay_identity(
            spec, base_trace, horizon=horizon, warmup=warmup,
            request_cap=request_cap, skip_reads=skip_reads,
            fault_plan=fault_plan,
        )
        if checkpoint is not None or resume_from is not None else {}
    )

    simulator = Simulator(
        spec.build(fault_plan=fault_plan), skip_reads=skip_reads
    )
    resampler = SegmentResampler(
        base_trace, rng=spawn_rng(make_rng(spec.seed), "resampler")
    )
    if resume_from is not None:
        payload = read_replay_image(resume_from, identity)
        simulator.restore_state(payload["simulator"])  # type: ignore[arg-type]
        simulator.stack.restore_state(payload["backend"])  # type: ignore[attr-defined]
        resampler.restore_state(payload["resampler"])  # type: ignore[arg-type]
        ckpt_log.info(
            "resumed %s at %d requests / %d segments from %s",
            spec.label(), simulator.requests_done,
            resampler.segments_emitted, resume_from,
        )
    elif warmup:
        for request in warmup:
            simulator.apply(request)

    def checkpointed(policy: CheckpointPolicy) -> Iterator[Request]:
        """The endless trace, with an image between segments when due.

        ``Simulator.run`` asks for the next request only after every stop
        check on the previous one passed, so an image is never written
        for a replay that has already ended.
        """
        last_checkpoint: int | None = None
        checkpoints_written = 0
        while True:
            done = simulator.requests_done
            if (
                last_checkpoint is None
                or done - last_checkpoint >= policy.every_requests
            ):
                write_image(policy.path, {
                    "kind": "replay",
                    **identity,
                    "simulator": simulator.snapshot_state(),
                    "backend": simulator.stack.snapshot_state(),  # type: ignore[attr-defined]
                    "resampler": resampler.snapshot_state(),
                })
                last_checkpoint = done
                checkpoints_written += 1
                ckpt_log.debug(
                    "checkpoint %d at %d requests -> %s",
                    checkpoints_written, done, policy.path,
                )
                if policy.on_checkpoint is not None:
                    policy.on_checkpoint(checkpoints_written)
                if (
                    policy.crash_after is not None
                    and checkpoints_written >= policy.crash_after
                ):
                    raise ReplayInterrupted(
                        f"crash_after={policy.crash_after} checkpoints "
                        f"written to {policy.path}"
                    )
            yield from resampler.next_segment()

    requests = (
        resampler.iter_requests() if checkpoint is None
        else checkpointed(checkpoint)
    )
    return simulator.run(requests, stop, label=spec.label())

