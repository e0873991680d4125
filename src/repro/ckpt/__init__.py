"""Durable checkpoint/restore for the simulator stack (``repro.ckpt``).

Three layers, bottom-up:

* :mod:`repro.ckpt.image` — the on-disk container: versioned, CRC-guarded,
  atomically replaced, canonical-JSON payload;
* :mod:`repro.ckpt.runner` — the image side of
  :func:`~repro.sim.experiment.run_replay`: a :class:`CheckpointPolicy`
  snapshots the whole stack at segment boundaries, and a replay resumes
  from one bit-identically, pinned to its :func:`replay_identity`;
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
    replay_identity,
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
    "SupervisorPolicy",
    "encode_payload",
    "read_image",
    "replay_identity",
    "run_supervised_matrix",
    "write_image",
]
