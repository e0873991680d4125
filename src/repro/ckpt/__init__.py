"""Durable checkpoint/restore for the simulator stack (``repro.ckpt``).

Three layers, bottom-up:

* :mod:`repro.ckpt.image` — the on-disk container: versioned, CRC-guarded,
  atomically replaced, canonical-JSON payload;
* :mod:`repro.ckpt.runner` — :func:`run_resumable`, the replay that
  snapshots the whole stack at segment boundaries and resumes
  bit-identically, pinned to its :func:`replay_identity`;
* :mod:`repro.ckpt.supervisor` — :func:`run_supervised_matrix`, the
  fault-tolerant campaign driver (one cell directory per experiment,
  resume-with-the-same-seed retry, progress timeout, quarantine).
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
    replay_identity,
    run_resumable,
)
from repro.ckpt.supervisor import (
    CampaignReport,
    CellOutcome,
    SupervisorPolicy,
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
    "encode_payload",
    "read_image",
    "replay_identity",
    "run_resumable",
    "run_supervised_matrix",
    "write_image",
]
