"""Tests for experiment specs and runners."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import SWLConfig
from repro.sim.experiment import (
    ExperimentSpec,
    logical_sectors_of,
    run_fixed_horizon,
    run_matrix,
    run_until_first_failure,
    scaled_mlc2_geometry,
    scaled_threshold,
    workload_params_for,
)
from repro.traces.generator import MobilePCWorkload


def fast_geometry():
    """Small chip with low endurance so failure runs finish in seconds."""
    return scaled_mlc2_geometry(24, scale=200).scaled(
        num_blocks=24, endurance=50, name="test-24b"
    )


def fast_params(spec, hours=2.0, seed=3):
    return workload_params_for(spec, duration=hours * 3600.0, seed=seed)


class TestScaledSetup:
    def test_geometry_keeps_block_organization(self):
        geometry = scaled_mlc2_geometry(64, scale=20)
        assert geometry.pages_per_block == 128
        assert geometry.page_size == 2048
        assert geometry.endurance == 500

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            scaled_mlc2_geometry(0)
        with pytest.raises(ValueError):
            scaled_mlc2_geometry(64, scale=3)  # does not divide 10,000

    def test_scaled_threshold(self):
        assert scaled_threshold(100, scale=20) == 5.0
        assert scaled_threshold(1000, scale=20) == 50.0

    def test_scaled_threshold_too_small(self):
        with pytest.raises(ValueError, match="smaller scale"):
            scaled_threshold(100, scale=200)


class TestSpec:
    def test_labels(self):
        geometry = fast_geometry()
        assert ExperimentSpec("ftl", geometry).label() == "FTL"
        assert (
            ExperimentSpec("nftl", geometry, SWLConfig(threshold=5, k=2)).label()
            == "NFTL+SWL+k=2+T=5"
        )

    def test_logical_sectors(self):
        spec = ExperimentSpec("ftl", fast_geometry())
        sectors = logical_sectors_of(spec)
        stack = spec.build()
        assert sectors == stack.layer.num_logical_pages * 4

    @pytest.mark.parametrize("blocks", [16, 64, 256])
    @pytest.mark.parametrize("op_ratio", [0.05, 0.1, 0.25])
    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("driver", ["ftl", "nftl"])
    def test_logical_sectors_match_the_built_backend(
        self, driver, channels, op_ratio, blocks
    ):
        spec = ExperimentSpec(
            driver, scaled_mlc2_geometry(blocks, scale=100),
            op_ratio=op_ratio, channels=channels,
        )
        backend = spec.build()
        assert logical_sectors_of(spec) == (
            backend.num_logical_pages * backend.sectors_per_page
        )

    def test_logical_sectors_build_no_stack(self, monkeypatch):
        def refuse(self, **kwargs):
            raise AssertionError("logical_sectors_of built a backend")

        monkeypatch.setattr(ExperimentSpec, "build", refuse)
        spec = ExperimentSpec("nftl", fast_geometry(), channels=4)
        assert logical_sectors_of(spec) > 0
        assert fast_params(spec).total_sectors == logical_sectors_of(spec)

    @pytest.mark.parametrize(
        "changes, message",
        [({"op_ratio": 1.0}, "op_ratio must be in"),
         ({"geometry": scaled_mlc2_geometry(4, scale=100)}, "no logical space")],
    )
    def test_logical_sectors_reject_what_build_rejects(self, changes, message):
        spec = replace(ExperimentSpec("ftl", fast_geometry()), **changes)
        with pytest.raises(ValueError, match=message):
            logical_sectors_of(spec)
        with pytest.raises(ValueError, match=message):
            spec.build()

    def test_workload_params_overrides(self):
        spec = ExperimentSpec("ftl", fast_geometry())
        params = workload_params_for(spec, duration=100.0, hot_fraction=0.2)
        assert params.hot_fraction == 0.2
        assert params.duration == 100.0


class TestRunners:
    @pytest.fixture(scope="class")
    def shared(self):
        spec = ExperimentSpec("ftl", fast_geometry(), seed=1)
        params = fast_params(spec)
        workload = MobilePCWorkload(params)
        return spec, workload.requests(), workload.prefill_requests()

    def test_first_failure_run(self, shared):
        spec, trace, warmup = shared
        result = run_until_first_failure(spec, trace, warmup=warmup)
        assert result.first_failure_time is not None
        assert result.first_failure_years > 0
        assert result.erase_distribution.maximum == spec.geometry.endurance + 1

    def test_fixed_horizon_run(self, shared):
        spec, trace, warmup = shared
        horizon = 6 * 3600.0
        result = run_fixed_horizon(spec, trace, horizon, warmup=warmup)
        assert result.sim_time <= horizon
        assert result.total_erases > 0

    def test_swl_beats_baseline_on_deviation(self, shared):
        spec, trace, warmup = shared
        swl_spec = ExperimentSpec(
            "ftl", spec.geometry, SWLConfig(threshold=2, k=0), seed=1
        )
        horizon = 12 * 3600.0
        baseline = run_fixed_horizon(spec, trace, horizon, warmup=warmup)
        leveled = run_fixed_horizon(swl_spec, trace, horizon, warmup=warmup)
        assert leveled.erase_distribution.deviation < baseline.erase_distribution.deviation

    def test_run_matrix_first_failure(self, shared):
        spec, trace, warmup = shared
        swl_spec = ExperimentSpec(
            "ftl", spec.geometry, SWLConfig(threshold=2, k=0), seed=1
        )
        results = run_matrix([spec, swl_spec], trace, warmup=warmup)
        assert [result.label for result in results] == ["FTL", "FTL+SWL+k=0+T=2"]
        assert all(result.first_failure_time is not None for result in results)

    def test_deterministic_given_seed(self, shared):
        spec, trace, warmup = shared
        first = run_until_first_failure(spec, trace, warmup=warmup)
        second = run_until_first_failure(spec, trace, warmup=warmup)
        assert first.total_erases == second.total_erases
        assert first.first_failure_time == second.first_failure_time

    def test_base_trace_shared_fairly(self, shared):
        # Different drivers replaying the same base trace see the same
        # request sequence (paper Section 5.1 fairness setup).
        spec, trace, warmup = shared
        nftl_spec = ExperimentSpec("nftl", spec.geometry, seed=1)
        ftl_result = run_fixed_horizon(spec, trace, 3600.0, warmup=warmup)
        nftl_result = run_fixed_horizon(nftl_spec, trace, 3600.0, warmup=warmup)
        assert ftl_result.requests == nftl_result.requests
        assert ftl_result.pages_written == nftl_result.pages_written
