"""Checkpoint/restore: image format, resumable replay, round-trip laws.

The heart of this suite is the golden-hash pair: a fixed-seed replay
that writes checkpoints along the way, and one interrupted at a mid-run
checkpoint and resumed, must both produce a ``SimResult.as_dict`` that
hashes to the uninterrupted replay's ``replay/ckpt`` entry of
``tests/goldens.json`` — the bit-identity contract of :mod:`repro.ckpt`.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable

import pytest
from hypothesis import given, settings, strategies as st

import repro.ckpt.runner as runner_module
from repro.ckpt import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointPolicy,
    CheckpointTruncatedError,
    CheckpointVersionError,
    encode_payload,
    read_image,
    write_image,
)
from repro.ckpt.image import CHECKPOINT_VERSION, MAGIC
from repro.core.config import SWLConfig
from repro.core.policies import LevelerSpec
from repro.fault.plan import FaultPlan
from repro.flash.errors import PowerLossError
from repro.ftl.factory import build_stack
from repro.sim.engine import Simulator, StopCondition
from repro.sim.experiment import (
    ExperimentSpec,
    run_replay,
    scaled_mlc2_geometry,
)
from repro.traces.extend import SegmentResampler
from repro.util.rng import make_rng, spawn_rng
from tests.test_goldens import ckpt_spec, ckpt_trace, recorded, result_sha256


class ReplayInterrupted(RuntimeError):
    """Raised by an :func:`interrupt_after` observer."""


def interrupt_after(count: int) -> Callable[[int], None]:
    """An ``on_checkpoint`` observer that dies at the ``count``-th image.

    The image on disk is then exactly the state the exception
    interrupted: a replay dying mid-run at a known-durable instant.
    """
    def observer(written: int) -> None:
        if written >= count:
            raise ReplayInterrupted(f"interrupted after checkpoint {written}")

    return observer


@pytest.fixture(scope="module")
def golden_trace():
    return ckpt_trace()


# ----------------------------------------------------------------------
# Image container
# ----------------------------------------------------------------------
class TestImage:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.ckpt"
        payload = {"kind": "test", "values": [1, 2.5, None, "x"], "nested": {"a": 1}}
        write_image(path, payload)
        assert read_image(path) == payload

    def test_canonical_encoding_is_order_independent(self):
        assert encode_payload({"b": 1, "a": 2}) == encode_payload({"a": 2, "b": 1})

    def test_nan_rejected_at_write_time(self, tmp_path):
        with pytest.raises(ValueError):
            write_image(tmp_path / "nan.ckpt", {"x": float("nan")})
        assert not (tmp_path / "nan.ckpt").exists()
        assert not (tmp_path / "nan.ckpt.tmp").exists()

    def test_atomic_overwrite_keeps_previous_on_error(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_image(path, {"generation": 1})
        with pytest.raises(ValueError):
            write_image(path, {"generation": float("inf")})
        assert read_image(path) == {"generation": 1}

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"REPRO")
        with pytest.raises(CheckpointTruncatedError):
            read_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_image(path, {"k": list(range(100))})
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CheckpointTruncatedError):
            read_image(path)

    def test_bit_flip_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_image(path, {"k": list(range(100))})
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError):
            read_image(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_image(path, {"k": 1})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointCorruptError):
            read_image(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_image(path, {"k": 1})
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="magic"):
            read_image(path)

    def test_version_mismatch_rejected(self, tmp_path):
        import struct

        path = tmp_path / "a.ckpt"
        write_image(path, {"k": 1})
        raw = bytearray(path.read_bytes())
        raw[8:10] = struct.pack("<H", CHECKPOINT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointVersionError):
            read_image(path)

    def test_magic_is_the_documented_constant(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_image(path, {"k": 1})
        assert path.read_bytes()[:8] == MAGIC == b"REPROCKP"


# ----------------------------------------------------------------------
# Resumable replay: the golden-hash bit-identity contract
# ----------------------------------------------------------------------
class TestGoldenResume:
    def test_checkpointing_changes_nothing(self, golden_trace, tmp_path):
        result = run_replay(
            ckpt_spec(),
            golden_trace,
            checkpoint=CheckpointPolicy(tmp_path / "c.ckpt", every_requests=20_000),
        )
        assert result_sha256(result) == recorded()["replay/ckpt"]

    def test_interrupted_and_resumed_matches_golden_hash(
        self, golden_trace, tmp_path
    ):
        path = tmp_path / "c.ckpt"
        with pytest.raises(ReplayInterrupted):
            run_replay(
                ckpt_spec(),
                golden_trace,
                checkpoint=CheckpointPolicy(
                    path, every_requests=10_000, on_checkpoint=interrupt_after(4)
                ),
            )
        resumed = run_replay(ckpt_spec(), golden_trace, resume_from=path)
        assert result_sha256(resumed) == recorded()["replay/ckpt"]

    def test_matches_plain_runner(self, golden_trace, tmp_path):
        # Every stop criterion of Simulator.run, plus a scheduled power
        # loss, once without and once with images written along the way.
        # The power-loss case's reference is a replay built by hand, not
        # by run_replay.
        spec = ckpt_spec()
        plan = FaultPlan(seed=5, power_loss_at=(60_000,))

        def hand_built_power_loss():
            simulator = Simulator(spec.build(fault_plan=plan), skip_reads=True)
            endless = SegmentResampler(
                golden_trace, rng=spawn_rng(make_rng(spec.seed), "resampler")
            )
            stop = StopCondition(until_first_failure=True)
            return simulator.run(endless, stop, label=spec.label())

        cases = {
            "first failure": {},
            "horizon": {"horizon": 2500.0},
            "request cap": {"request_cap": 12_345},
            "power loss": {"fault_plan": plan},
        }
        policy = CheckpointPolicy(tmp_path / "c.ckpt", every_requests=3_000)
        plain = {}
        for name, kwargs in cases.items():
            plain[name] = (
                hand_built_power_loss() if name == "power loss"
                else run_replay(spec, golden_trace, **kwargs)
            )
            checkpointed = run_replay(
                spec, golden_trace, checkpoint=policy, **kwargs
            )
            assert plain[name].as_dict() == checkpointed.as_dict(), name
        assert plain["first failure"].first_failure_time is not None
        assert plain["horizon"].sim_time <= 2500.0
        assert plain["request cap"].requests == 12_345
        assert plain["power loss"].power_lost

    def test_on_checkpoint_sees_the_image_just_written(
        self, golden_trace, tmp_path, monkeypatch
    ):
        # The supervisor's SIGKILL hooks rely on this: when the observer
        # runs, the image on disk decodes to the state just frozen.
        path = tmp_path / "c.ckpt"
        written = []

        def recording_write_image(target, payload):
            written.append(encode_payload(payload))
            return write_image(target, payload)

        def observer(count):
            assert count == len(written)
            assert encode_payload(read_image(path)) == written[-1]

        monkeypatch.setattr(runner_module, "write_image", recording_write_image)
        run_replay(
            ckpt_spec(), golden_trace, request_cap=20_000,
            checkpoint=CheckpointPolicy(
                path, every_requests=3_000, on_checkpoint=observer
            ),
        )
        assert len(written) >= 4
        assert len(set(written)) == len(written)

    def test_resume_rejects_wrong_spec(self, golden_trace, tmp_path):
        path = tmp_path / "c.ckpt"
        with pytest.raises(ReplayInterrupted):
            run_replay(
                ckpt_spec(),
                golden_trace,
                checkpoint=CheckpointPolicy(path, on_checkpoint=interrupt_after(1)),
            )
        other = replace(ckpt_spec(), seed=8)
        with pytest.raises(CheckpointMismatchError):
            run_replay(other, golden_trace, resume_from=path)

    def test_swlconfig_image_resumes_under_levelerspec(
        self, golden_trace, tmp_path
    ):
        # One fingerprint shape: the config's two names write and accept
        # the same image, and any other kind or knob is still refused.
        def spec_with(swl):
            return replace(ckpt_spec(), swl=swl)

        path = tmp_path / "c.ckpt"
        with pytest.raises(ReplayInterrupted):
            run_replay(
                spec_with(SWLConfig(threshold=5, k=0)),
                golden_trace,
                checkpoint=CheckpointPolicy(
                    path, every_requests=10_000, on_checkpoint=interrupt_after(2)
                ),
            )
        resumed = run_replay(
            spec_with(LevelerSpec(kind="swl", threshold=5, k=0)),
            golden_trace,
            resume_from=path,
        )
        whole = run_replay(
            spec_with(SWLConfig(threshold=5, k=0)), golden_trace
        )
        assert resumed.as_dict() == whole.as_dict()
        for other in (
            LevelerSpec(kind="softwear", threshold=5, k=0),
            LevelerSpec(kind="swl", threshold=5, k=1),
            LevelerSpec(kind="swl", threshold=5, k=0, delta=33),
        ):
            with pytest.raises(CheckpointMismatchError):
                run_replay(spec_with(other), golden_trace, resume_from=path)

    def test_resume_rejects_wrong_mode(self, golden_trace, tmp_path):
        path = tmp_path / "c.ckpt"
        with pytest.raises(ReplayInterrupted):
            run_replay(
                ckpt_spec(),
                golden_trace,
                checkpoint=CheckpointPolicy(path, on_checkpoint=interrupt_after(1)),
            )
        with pytest.raises(CheckpointMismatchError):
            run_replay(
                ckpt_spec(), golden_trace, horizon=3600.0, resume_from=path
            )

    def test_resume_rejects_wrong_trace(self, golden_trace, tmp_path):
        path = tmp_path / "c.ckpt"
        with pytest.raises(ReplayInterrupted):
            run_replay(
                ckpt_spec(),
                golden_trace,
                checkpoint=CheckpointPolicy(path, on_checkpoint=interrupt_after(1)),
            )
        with pytest.raises(CheckpointMismatchError):
            run_replay(ckpt_spec(), golden_trace[:-1], resume_from=path)


# ----------------------------------------------------------------------
# Power loss mid-run: checkpoint, crash, restore, invariants (satellite)
# ----------------------------------------------------------------------
class TestPowerLossRestore:
    def _stack(self, plan=None):
        from repro.fault.injector import FaultInjector

        geometry = scaled_mlc2_geometry(24, scale=100)
        injector = FaultInjector(plan) if plan is not None else None
        return build_stack(
            geometry,
            "ftl",
            SWLConfig(enabled=True, threshold=10, k=0),
            store_data=True,
            rng=make_rng(11),
            injector=injector,
        )

    def test_restore_after_power_loss_keeps_invariants(self, tmp_path):
        # Erase faults keep recovery machinery busy; the scheduled power
        # loss lands inside that churn (possibly mid-erase) and kills the
        # run well after the checkpoint was taken.
        plan = FaultPlan(seed=5, erase_fail_prob=0.05, power_loss_at=(900,))
        stack = self._stack(plan)
        layer = stack.layer
        rng = make_rng(3)
        num_pages = layer.num_logical_pages
        acked: dict[int, bytes] = {}
        snapshot_acked: dict[int, bytes] = {}
        path = tmp_path / "mid.ckpt"
        lost = False
        for step in range(2000):
            lpn = rng.randrange(num_pages)
            payload = f"step={step} lpn={lpn}".encode()
            try:
                layer.write(lpn, payload)
            except PowerLossError:
                lost = True
                break
            acked[lpn] = payload
            if step == 400:
                write_image(path, stack.snapshot_state())
                snapshot_acked = dict(acked)
        assert lost, "the scheduled power loss never fired"
        assert snapshot_acked, "checkpoint was never taken"

        restored = self._stack(plan)
        restored.restore_state(read_image(path))
        # Crash-consistency invariants on the restored stack: internal
        # bookkeeping balances, and every write acked before the
        # checkpoint reads back intact.
        restored.layer.assert_internal_consistency()
        for lpn, payload in snapshot_acked.items():
            assert restored.layer.read(lpn) == payload
        assert restored.layer.retired_blocks == set(restored.flash.bad_blocks)
        # The restored stack is live: it keeps absorbing writes.
        for step in range(50):
            restored.layer.write(step % num_pages, f"post={step}".encode())
        restored.layer.assert_internal_consistency()

    def test_power_loss_replay_resumes_identically(self, golden_trace, tmp_path):
        # End-to-end via the runner: a replay whose fault plan schedules a
        # power loss, interrupted at a checkpoint before the loss and
        # resumed, reports the identical (power-lost) result.
        spec = ckpt_spec()
        plan = FaultPlan(seed=5, power_loss_at=(60_000,))
        clean = run_replay(spec, golden_trace, fault_plan=plan)
        assert clean.power_lost

        path = tmp_path / "c.ckpt"
        with pytest.raises(ReplayInterrupted):
            run_replay(
                spec,
                golden_trace,
                fault_plan=plan,
                checkpoint=CheckpointPolicy(
                    path, every_requests=5_000, on_checkpoint=interrupt_after(2)
                ),
            )
        resumed = run_replay(
            spec, golden_trace, fault_plan=plan, resume_from=path
        )
        assert resumed.power_lost
        assert resumed.as_dict() == clean.as_dict()


# ----------------------------------------------------------------------
# Round-trip law: snapshot -> restore -> snapshot is byte-identical
# ----------------------------------------------------------------------
ROUND_TRIP_CONFIGS = [
    pytest.param(driver, k, channels, id=f"{driver}-k{k}-ch{channels}")
    for driver in ("ftl", "nftl")
    for k in (0, 3)
    for channels in (1, 4)
]


@pytest.mark.parametrize("driver,k,channels", ROUND_TRIP_CONFIGS)
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    writes=st.lists(st.integers(0, 10_000), min_size=1, max_size=120),
)
def test_snapshot_round_trip_is_byte_identical(driver, k, channels, seed, writes):
    """snapshot -> restore-into-fresh-stack -> snapshot, byte for byte."""
    spec = ExperimentSpec(
        driver,
        scaled_mlc2_geometry(24, scale=100),
        SWLConfig(enabled=True, threshold=8, k=k),
        seed=seed,
        channels=channels,
    )
    backend = spec.build()
    pages = backend.num_logical_pages
    for lpn in writes:
        backend.write_pages([lpn % pages])
    first = encode_payload(backend.snapshot_state())

    fresh = spec.build()
    fresh.restore_state(json.loads(first))
    second = encode_payload(fresh.snapshot_state())
    assert first == second


@pytest.mark.parametrize("driver,k,channels", ROUND_TRIP_CONFIGS)
def test_restored_backend_behaves_identically(driver, k, channels):
    """After restore, both stacks evolve in lockstep under more writes."""
    spec = ExperimentSpec(
        driver,
        scaled_mlc2_geometry(24, scale=100),
        SWLConfig(enabled=True, threshold=8, k=k),
        seed=21,
        channels=channels,
    )
    backend = spec.build()
    pages = backend.num_logical_pages
    rng = make_rng(9)
    for _ in range(300):
        backend.write_pages([rng.randrange(pages)])
    frozen = json.loads(encode_payload(backend.snapshot_state()))

    twin = spec.build()
    twin.restore_state(frozen)
    tail_rng = make_rng(10)
    tail = [tail_rng.randrange(pages) for _ in range(200)]
    for lpn in tail:
        backend.write_pages([lpn])
        twin.write_pages([lpn])
    assert encode_payload(backend.snapshot_state()) == encode_payload(
        twin.snapshot_state()
    )
