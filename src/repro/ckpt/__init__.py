"""Durable checkpoint/restore for the simulator stack (``repro.ckpt``).

Three layers, bottom-up:

* :mod:`repro.ckpt.image` — the on-disk container: versioned, CRC-guarded,
  atomically replaced, canonical-JSON payload;
* :mod:`repro.ckpt.runner` — :func:`run_resumable`, the replay that
  snapshots the whole stack at segment boundaries and resumes
  bit-identically;
* :mod:`repro.ckpt.supervisor` — :func:`run_supervised_matrix`, the
  fault-tolerant campaign driver (per-cell timeout, seeded retry,
  checkpoint-resume, quarantine).
"""

from repro.ckpt.image import (
    CHECKPOINT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    MAGIC,
    encode_payload,
    read_image,
    write_image,
)
from repro.ckpt.runner import (
    CheckpointPolicy,
    ReplayInterrupted,
    checkpoint_spec_seed,
    fault_plan_state,
    resume_spec,
    run_resumable,
    spec_state,
    trace_digest,
)
from repro.ckpt.supervisor import (
    CampaignReport,
    CellOutcome,
    SupervisorPolicy,
    retry_seed,
    run_supervised_matrix,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "MAGIC",
    "CampaignReport",
    "CellOutcome",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointPolicy",
    "CheckpointTruncatedError",
    "CheckpointVersionError",
    "ReplayInterrupted",
    "SupervisorPolicy",
    "checkpoint_spec_seed",
    "encode_payload",
    "fault_plan_state",
    "read_image",
    "resume_spec",
    "retry_seed",
    "run_resumable",
    "run_supervised_matrix",
    "spec_state",
    "trace_digest",
    "write_image",
]
