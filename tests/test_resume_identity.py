"""Resume bit-identity across selection policies and challenger mechanisms.

The checkpoint contract (see ``tests/test_ckpt.py``) is proved here for
the configurations the golden hash does not cover: the paper's SW
Leveler, its random selection policy, and each registry challenger
(:class:`~repro.core.policies.LevelerSpec` kinds).  An
interrupted-and-resumed replay must hash identically to the
uninterrupted one, and the registry's ``"swl"`` kind must reproduce the
classic ``SWLConfig`` stack bit for bit — the committed golden hash.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.ckpt import CheckpointPolicy
from repro.core.config import SWLConfig
from repro.core.policies import LevelerSpec
from repro.sim.experiment import (
    ExperimentSpec,
    run_replay,
    scaled_mlc2_geometry,
    workload_params_for,
)
from repro.traces.generator import MobilePCWorkload
from tests.test_ckpt import ReplayInterrupted, interrupt_after

#: Same constant as ``tests/test_ckpt.py``: the uninterrupted fixed-seed
#: golden replay.  The registry's paper-SWL kind must land on it too.
GOLDEN_SHA256 = (
    "0b4613179265a40590cfe4f5123c2ee5db75b49fb3e5a886aa94c3f09b36e282"
)


def result_sha256(result) -> str:
    blob = json.dumps(
        result.as_dict(), sort_keys=True, separators=(",", ":")
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def _spec(swl) -> ExperimentSpec:
    return ExperimentSpec(
        "ftl", scaled_mlc2_geometry(24, scale=100), swl, seed=11
    )


@pytest.fixture(scope="module")
def resume_trace():
    spec = _spec(SWLConfig(enabled=True, threshold=8, k=0))
    params = workload_params_for(spec, duration=900.0, seed=5)
    return MobilePCWorkload(params).requests()


#: The paper's SW Leveler, the random selection ablation, and one
#: LevelerSpec per challenger mechanism.
RESUME_VARIANTS = [
    pytest.param(
        SWLConfig(enabled=True, threshold=8, k=0), id="swl-on-erase"
    ),
    pytest.param(
        SWLConfig(enabled=True, threshold=8, k=0, selection="random"),
        id="swl-random-selection",
    ),
    pytest.param(
        LevelerSpec(kind="dual-pool", delta=4, check_period=16),
        id="dual-pool",
    ),
    pytest.param(
        LevelerSpec(kind="cache-avoid", cache_pages=16), id="cache-avoid"
    ),
    pytest.param(
        LevelerSpec(kind="softwear", period_requests=128), id="softwear"
    ),
]


@pytest.mark.parametrize("swl", RESUME_VARIANTS)
def test_interrupted_resume_is_bit_identical(swl, resume_trace, tmp_path):
    """Crash mid-replay, resume, and land on the uninterrupted hash."""
    spec = _spec(swl)
    uninterrupted = run_replay(spec, resume_trace)
    path = tmp_path / "resume.ckpt"
    with pytest.raises(ReplayInterrupted):
        run_replay(
            spec,
            resume_trace,
            checkpoint=CheckpointPolicy(
                path, every_requests=2_000, on_checkpoint=interrupt_after(3)
            ),
        )
    resumed = run_replay(spec, resume_trace, resume_from=path)
    assert result_sha256(resumed) == result_sha256(uninterrupted)


def test_leveler_spec_swl_matches_swlconfig_golden():
    """The registry's paper-SWL kind is the classic stack, bit for bit."""
    spec = ExperimentSpec(
        "ftl",
        scaled_mlc2_geometry(32, scale=100),
        LevelerSpec(kind="swl", threshold=10, k=0),
        seed=7,
    )
    trace = MobilePCWorkload(workload_params_for(spec, duration=1200.0, seed=3)).requests()
    assert result_sha256(run_replay(spec, trace)) == GOLDEN_SHA256


# ----------------------------------------------------------------------
# Leveler-level snapshot policy identity: snapshot_state / restore_state
# carry the selection policy and reject a mismatched configuration
# instead of silently resuming wrong
# ----------------------------------------------------------------------
class _Host:
    def recycle_block_range(self, blocks):
        return 0

    def swl_cost_probe(self):
        return (0, 0)


def _swl(**kwargs):
    return SWLConfig(enabled=True, threshold=50, **kwargs).build(16, _Host())


class TestSnapshotPolicyIdentity:
    def test_selection_mismatch_rejected(self):
        source = _swl(selection="random")
        target = _swl(selection="sequential")
        with pytest.raises(ValueError, match="selection policy"):
            target.restore_state(source.snapshot_state())
