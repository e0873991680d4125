"""Endurance projection, matrix, report, and ``repro endure`` tests."""

from __future__ import annotations

import math

import pytest

import repro.ckpt.supervisor as supervisor_module
from repro.cli import main
from repro.core.config import SWLConfig
from repro.endurance import (
    endurance_cells,
    first_failure_horizon,
    project_endurance,
    run_endurance_matrix,
)
from repro.sim.engine import Simulator
from repro.sim.experiment import ExperimentSpec, scaled_mlc2_geometry
from repro.sim.reporting import endurance_markdown_report
from repro.traces.generator import ShapeParams, make_shape


def small_spec(**overrides):
    defaults = dict(
        driver="ftl",
        geometry=scaled_mlc2_geometry(16, scale=100),
        swl=SWLConfig(threshold=50.0),
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def replay_shape(spec, name, requests=4000):
    backend = spec.build()
    simulator = Simulator(backend)
    sectors = backend.num_logical_pages * backend.sectors_per_page
    shape = make_shape(name, ShapeParams(total_sectors=sectors, seed=spec.seed))
    stream = shape.iter_requests()
    for _ in range(requests):
        simulator.apply(next(stream))
    return backend, simulator.result(label=spec.label())


class TestChokepoint:
    def test_linear_extrapolation(self):
        assert first_failure_horizon(1000.0, 100, 50) == 2000.0

    def test_waf_ratio_rescales(self):
        # Doubling the projected WAF halves the horizon.
        assert first_failure_horizon(1000.0, 100, 50, waf_ratio=2.0) == 1000.0

    def test_unworn_device_projects_to_infinity(self):
        assert first_failure_horizon(1000.0, 100, 0) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            first_failure_horizon(0.0, 100, 5)
        with pytest.raises(ValueError):
            first_failure_horizon(10.0, 0, 5)
        with pytest.raises(ValueError):
            first_failure_horizon(10.0, 100, -1)
        with pytest.raises(ValueError):
            first_failure_horizon(10.0, 100, 5, waf_ratio=0.0)


class TestProjectEndurance:
    def test_waf_is_exact_against_total_programs(self):
        spec = small_spec()
        backend, result = replay_shape(spec, "hotspot")
        # The identity behind the projection: every physical program is
        # a host write or a live copy.
        assert backend.total_programs() == (
            result.pages_written + result.live_page_copies
        )
        projection = project_endurance(result, spec.geometry)
        assert projection.waf == pytest.approx(
            backend.total_programs() / result.pages_written
        )
        assert projection.waf >= 1.0

    def test_waf_exact_on_multi_channel_array(self):
        spec = small_spec(channels=2)
        backend, result = replay_shape(spec, "uniform")
        assert backend.total_programs() == (
            result.pages_written + result.live_page_copies
        )

    def test_projection_fields(self):
        spec = small_spec()
        _, result = replay_shape(spec, "hotspot")
        geometry = spec.geometry
        projection = project_endurance(result, geometry)
        capacity = (geometry.num_blocks * geometry.pages_per_block
                    * geometry.page_size)
        assert projection.capacity_bytes == capacity
        assert projection.host_bytes_written == (
            result.pages_written * geometry.page_size
        )
        maximum = result.erase_distribution.maximum
        assert maximum > 0
        assert projection.erase_maximum == maximum
        assert projection.tbw_bytes == pytest.approx(
            projection.host_bytes_written * geometry.endurance / maximum
        )
        # Perfect leveling can only help.
        assert projection.tbw_ideal_bytes >= projection.tbw_bytes
        assert projection.days_at_one_dwpd == pytest.approx(
            projection.tbw_bytes / capacity
        )
        assert projection.projected_first_failure_s == pytest.approx(
            first_failure_horizon(result.sim_time, geometry.endurance, maximum)
        )
        assert projection.wear_skew == pytest.approx(
            maximum / result.erase_distribution.average
        )
        assert projection.dwpd_over(projection.days_at_one_dwpd) == (
            pytest.approx(1.0)
        )
        assert projection.as_dict()["waf"] == projection.waf

    def test_multi_channel_capacity_scales(self):
        spec = small_spec(channels=2)
        _, result = replay_shape(spec, "uniform")
        projection = project_endurance(result, spec.geometry)
        single = (spec.geometry.num_blocks * spec.geometry.pages_per_block
                  * spec.geometry.page_size)
        assert projection.capacity_bytes == 2 * single

    def test_rejects_writeless_run(self):
        spec = small_spec()
        backend = spec.build()
        result = Simulator(backend).result(label="empty")
        with pytest.raises(ValueError, match="no host writes"):
            project_endurance(result, spec.geometry)


class TestMatrix:
    def test_cells_cross_product_workload_major(self):
        specs = [small_spec(), small_spec(swl=None)]
        cells = endurance_cells(["hotspot", "uniform"], specs)
        assert [c.workload for c in cells] == \
               ["hotspot", "hotspot", "uniform", "uniform"]
        assert cells[0].label().startswith("hotspot×")

    def test_matrix_runs_and_projects_every_cell(self):
        specs = [small_spec(swl=None), small_spec()]
        cells = endurance_cells(["hotspot", "sequential"], specs)
        results = run_endurance_matrix(cells, horizon=900.0, seed=3)
        assert len(results) == 4
        assert all(r is not None for r in results)
        for cell, result in zip(cells, results):
            assert result.cell is cell
            assert result.projection.label == cell.label()
            assert result.replay.sim_time <= 900.0
        # Same workload group shares one trace: the two hotspot cells
        # replayed identical requests.
        assert results[0].replay.requests == results[1].replay.requests

    def test_failed_worker_cell_raises_with_its_label(self, monkeypatch):
        def fail_second_cell(index, attempt):
            if index == 1:
                raise OSError("disk on fire")

        monkeypatch.setattr(supervisor_module, "_disturbance",
                            fail_second_cell)
        cells = endurance_cells(["hotspot"], [small_spec(swl=None), small_spec()])
        with pytest.raises(RuntimeError) as caught:
            run_endurance_matrix(cells, horizon=300.0, seed=3, workers=2)
        assert cells[1].label() in str(caught.value)
        assert "OSError: disk on fire" in str(caught.value)

    def test_matrix_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            run_endurance_matrix([], horizon=0.0)


class TestReporting:
    def test_markdown_report_lists_cells(self):
        spec = small_spec()
        cells = endurance_cells(["hotspot"], [spec])
        results = run_endurance_matrix(cells, horizon=700.0, seed=1)
        report = endurance_markdown_report(results, title="Projection check")
        assert "# Projection check" in report
        assert "hotspot×" in report
        assert "Days @ 1 DWPD" in report

    def test_markdown_report_requires_results(self):
        with pytest.raises(ValueError, match="no results"):
            endurance_markdown_report([])


class TestEndureCli:
    def test_endure_smoke(self, capsys, tmp_path):
        report = tmp_path / "endure.md"
        status = main([
            "endure", "--driver", "ftl", "--blocks", "16", "--scale", "100",
            "--shapes", "hotspot", "mixed", "--horizon-days", "0.02",
            "--channels", "2", "--seed", "7", "--report", str(report),
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "Endurance projections" in out
        assert "hotspot×FTL" in out
        assert "Days @ 1 DWPD" in report.read_text()
