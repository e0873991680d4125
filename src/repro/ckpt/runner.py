"""Resumable replay: periodic checkpoints of the full simulator stack.

This module is the image side of :func:`~repro.sim.experiment.run_replay`,
the one replay body; the replay imports it only when it is handed a
:class:`CheckpointPolicy` or an image to resume from.  Between segments
of the resampled endless trace, :func:`checkpointed_requests` can freeze
the whole stack — chip wear state, FTL/NFTL tables, SW Leveler + BET,
every RNG stream, fault-plan cursors, the engine's bookkeeping, and the
resampler's position — into one CRC-guarded image
(:mod:`repro.ckpt.image`); :func:`restore_replay` thaws one into a fresh
replay.

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
(:func:`replay_identity`: spec, replay mode, base-trace digest); a
replay refuses to resume into a different one with
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
from repro.fault.plan import FaultPlan
from repro.sim.engine import Simulator
from repro.sim.experiment import DEFAULT_REQUEST_CAP, ExperimentSpec
from repro.traces.extend import SegmentResampler
from repro.traces.model import Request
from repro.util.diagnostics import get_logger

ckpt_log = get_logger("ckpt")


@dataclass(frozen=True)
class CheckpointPolicy:
    """Where and how often a replay checkpoints.

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
    on_checkpoint:
        Observer called with the running checkpoint count right after
        each image lands on disk, so an image that decodes to the state
        just frozen exists when it runs.  The campaign supervisor's
        tests and the CI kill-and-resume smoke hang or SIGKILL workers
        from here; an observer that raises interrupts the replay at that
        durable instant.
    """

    path: str | Path
    every_requests: int = 100_000
    on_checkpoint: "Callable[[int], None] | None" = None

    def __post_init__(self) -> None:
        if self.every_requests <= 0:
            raise ValueError(
                f"every_requests must be positive, got {self.every_requests}"
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
# Restore, and images between segments
# ----------------------------------------------------------------------
def restore_replay(
    path: str | Path,
    identity: dict[str, object],
    simulator: Simulator,
    resampler: SegmentResampler,
) -> None:
    """Overwrite a freshly built replay with the image at ``path``."""
    payload = read_replay_image(path, identity)
    simulator.restore_state(payload["simulator"])  # type: ignore[arg-type]
    simulator.stack.restore_state(payload["backend"])  # type: ignore[attr-defined]
    resampler.restore_state(payload["resampler"])  # type: ignore[arg-type]
    ckpt_log.info(
        "resumed at %d requests / %d segments from %s",
        simulator.requests_done, resampler.segments_emitted, path,
    )


def checkpointed_requests(
    policy: CheckpointPolicy,
    identity: dict[str, object],
    simulator: Simulator,
    resampler: SegmentResampler,
) -> Iterator[Request]:
    """The endless trace, with an image between segments when due.

    ``Simulator.run`` asks for the next request only after every stop
    check on the previous one passed, so an image is never written for a
    replay that has already ended.
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
        yield from resampler.next_segment()
