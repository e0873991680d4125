"""Policy-arena tournament: smoke run, accounting laws, report rendering."""

from __future__ import annotations

import json

import pytest

from repro.arena import DEFAULT_ROSTER, arena_report, roster_specs, run_arena
from repro.arena.report import leaderboard_table
from repro.arena.tournament import DEFAULT_WORKLOADS, arena_waf
from repro.sim.experiment import scaled_mlc2_geometry

SMOKE_LEVELERS = ("baseline", "swl", "dual-pool")
SMOKE_WORKLOADS = ("hotspot", "sequential")


@pytest.fixture(scope="module")
def smoke_result():
    return run_arena(
        scaled_mlc2_geometry(24, scale=100),
        "ftl",
        workloads=SMOKE_WORKLOADS,
        levelers=SMOKE_LEVELERS,
        horizon=0.02 * 86_400.0,
        seed=3,
        service_requests=300,
        run_faults=False,
    )


class TestRoster:
    def test_default_roster_covers_every_mechanism(self):
        assert set(DEFAULT_ROSTER) == {
            "baseline", "swl", "dual-pool", "cache-avoid", "softwear"
        }
        assert len(DEFAULT_WORKLOADS) >= 3

    def test_roster_specs_preserves_order(self):
        specs = roster_specs(("swl", "baseline"))
        assert list(specs) == ["swl", "baseline"]

    def test_unknown_leveler_rejected(self):
        with pytest.raises(ValueError, match="unknown arena leveler"):
            roster_specs(("swl", "mystery"))


class TestArenaWaf:
    def test_identity_without_cache(self):
        # Non-intercepting mechanisms: the repo's exact-WAF identity.
        assert arena_waf(100, 40, {"swl_erases": 3}) == pytest.approx(1.4)

    def test_cache_absorption_deducted(self):
        stats = {"cache_hits": 30, "cache_resident": 10}
        assert arena_waf(100, 0, stats) == pytest.approx(0.6)

    def test_zero_host_pages(self):
        assert arena_waf(0, 5, {}) == 0.0


class TestSmokeTournament:
    def test_full_cross_product_of_cells(self, smoke_result):
        assert len(smoke_result.cells) == len(SMOKE_LEVELERS) * len(
            SMOKE_WORKLOADS
        )
        seen = {(cell.workload, cell.leveler) for cell in smoke_result.cells}
        assert seen == {
            (workload, leveler)
            for workload in SMOKE_WORKLOADS
            for leveler in SMOKE_LEVELERS
        }

    def test_baseline_cells_have_zero_extra_erases(self, smoke_result):
        for cell in smoke_result.cells:
            if cell.leveler == "baseline":
                assert cell.extra_erases == 0

    def test_leaderboard_sorted_by_endurance(self, smoke_result):
        days = [entry.endurance_days for entry in smoke_result.leaderboard]
        assert days == sorted(days, reverse=True)

    def test_leaderboard_row_per_leveler(self, smoke_result):
        assert {e.leveler for e in smoke_result.leaderboard} == set(
            SMOKE_LEVELERS
        )
        by_name = {e.leveler: e for e in smoke_result.leaderboard}
        # RAM accounting: baseline none, SWL one bit per block (k=0),
        # dual-pool a 4-byte counter per block.
        assert by_name["baseline"].ram_bytes == 0
        assert by_name["swl"].ram_bytes == (24 + 7) // 8
        assert by_name["dual-pool"].ram_bytes == 24 * 4
        # Faults were skipped: the column reports True trivially.
        assert all(e.faults_ok for e in smoke_result.leaderboard)
        # The service soak produced a real p99 for every contender.
        assert all(e.p99_s > 0 for e in smoke_result.leaderboard)

    def test_as_dict_is_json_serializable(self, smoke_result):
        payload = json.loads(json.dumps(smoke_result.as_dict()))
        assert payload["workloads"] == list(SMOKE_WORKLOADS)
        assert len(payload["leaderboard"]) == len(SMOKE_LEVELERS)
        assert {cell["leveler"] for cell in payload["cells"]} == set(
            SMOKE_LEVELERS
        )

    def test_markdown_report_carries_the_columns(self, smoke_result):
        report = arena_report(smoke_result)
        assert "## Leaderboard" in report
        for column in ("endurance", "extra erases", "WAF", "RAM", "p99"):
            assert column in report
        for entry in smoke_result.leaderboard:
            assert entry.label in report

    def test_console_table_renders(self, smoke_result):
        table = leaderboard_table(smoke_result).text()
        assert "Policy arena leaderboard" in table
        assert "dual-pool" in table


class TestValidation:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="horizon"):
            run_arena(
                scaled_mlc2_geometry(24, scale=100), "ftl", horizon=0.0
            )

    def test_needs_a_workload(self):
        with pytest.raises(ValueError, match="workload"):
            run_arena(
                scaled_mlc2_geometry(24, scale=100), "ftl", workloads=()
            )
