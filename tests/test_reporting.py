"""Tests for the markdown report generator."""

from __future__ import annotations

import pytest

from repro.sim.engine import SimResult, WearSample
from repro.sim.metrics import EraseDistribution
from repro.sim.reporting import markdown_report, replay_summary_table


def make_result(label, *, failure_days=2.0, timeline=False, swl=False):
    samples = []
    if timeline:
        samples = [
            WearSample(time=t, average=t / 100, deviation=t / 50,
                       maximum=int(t), total_erases=int(t * 2))
            for t in (100.0, 200.0, 300.0)
        ]
    return SimResult(
        label=label,
        requests=1000,
        pages_written=5000,
        pages_read=100,
        sim_time=failure_days * 86_400 if failure_days else 86_400,
        first_failure_time=failure_days * 86_400 if failure_days else None,
        erase_distribution=EraseDistribution.from_counts([1, 2, 3]),
        total_erases=6,
        live_page_copies=42,
        gc_runs=3,
        layer_stats={},
        swl_stats={"swl_erases": 7, "bet_resets": 2} if swl else {},
        timeline=samples,
    )


class TestMarkdownReport:
    def test_summary_table_present(self):
        report = markdown_report([make_result("FTL"), make_result("FTL+SWL",
                                                                  failure_days=3.0)])
        assert "# Wear-leveling simulation report" in report
        assert "| FTL |" in report
        assert "+50.0%" in report

    def test_custom_baseline(self):
        report = markdown_report(
            [make_result("A", failure_days=4.0), make_result("B", failure_days=2.0)],
            baseline_label="B",
        )
        assert "+100.0%" in report

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="labelled"):
            markdown_report([make_result("A")], baseline_label="Z")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            markdown_report([])

    def test_no_failure_row(self):
        report = markdown_report([make_result("A", failure_days=None)])
        assert "no failure" in report

    def test_summary_row_without_a_failure(self):
        # The console sweep table used to divide first_failure_time by
        # DAY unguarded; the one builder both renderers share must not.
        table = replay_summary_table(
            [make_result("A"), make_result("B", failure_days=None)]
        )
        assert table.cells()[1][:3] == ["B", "> 1.00 d (no failure)", "n/a"]
        assert "no failure" in table.text()

    def test_swl_stats_section(self):
        report = markdown_report([make_result("X", swl=True)])
        assert "SWL swl erases" in report
        assert "| 7 |" in report

    def test_timeline_sparklines(self):
        report = markdown_report([make_result("X", timeline=True)])
        assert "Wear evolution" in report
        assert "deviation `" in report

    def test_save_report(self, tmp_path, capsys):
        from repro.cli import _write_report

        path = tmp_path / "out.md"
        _write_report(str(path), markdown_report([make_result("A")], title="T"))
        assert path.read_text().startswith("# T")
        assert str(path) in capsys.readouterr().out


class TestCliReportFlag:
    def test_sweep_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "sweep.md"
        code = main([
            "sweep", "--blocks", "24", "--scale", "100", "--driver", "nftl",
            "--thresholds", "10", "--ks", "0", "--report", str(path),
        ])
        assert code == 0
        text = path.read_text()
        assert "first-failure sweep" in text
        assert "NFTL+SWL+k=0+T=10" in text
        assert "markdown report written" in capsys.readouterr().out


def _cells(line):
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def console_tables(text):
    """(headers, rows) of every ``Table.text()`` rendering in ``text``."""
    tables, rows, rules = [], [], 0
    for line in text.splitlines():
        if line.startswith("+-"):
            rules += 1
            if rules == 3:
                tables.append((rows[0], rows[1:]))
                rows, rules = [], 0
        elif rules and line.startswith("|"):
            rows.append(_cells(line))
    return tables


def markdown_tables(text):
    """(headers, rows) of every pipe table in a markdown document."""
    tables, rows = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            rows.append(_cells(line))
        elif rows:
            tables.append((rows[0], rows[2:]))
            rows = []
    return tables


TINY = ["--blocks", "24", "--scale", "100", "--seed", "3"]


class TestConsoleMatchesReport:
    """Every table a command prints is a table its ``--report`` file holds."""

    @pytest.mark.parametrize("argv, tables", [
        (["sweep", "--thresholds", "10", "--ks", "0", *TINY], 1),
        (["sweep", "--thresholds", "10", "--ks", "0", "--resume", "{tmp}/camp",
          *TINY], 2),
        (["serve", "--compare", "--thresholds", "10", "--channels", "2",
          "--requests", "500", "--days", "0.02", *TINY], 3),
        (["endure", "--driver", "ftl", "--shapes", "hotspot", "--tenants", "2",
          "--horizon-days", "0.02", "--tenant-requests", "1000", *TINY], 2),
        (["faults", "--soak-writes", "200", "--loss-points", "2", *TINY], 2),
        (["arena", "--levelers", "baseline", "swl", "--workloads", "hotspot",
          "--horizon-days", "0.02", "--service-requests", "200", "--no-faults",
          *TINY], 1),
    ], ids=["sweep", "sweep-resume", "serve-compare", "endure-tenants",
            "faults", "arena"])
    def test_console_tables_are_the_report_tables(
        self, argv, tables, tmp_path, capsys, request
    ):
        from repro.cli import main

        if argv[0] == "sweep":
            request.getfixturevalue("short_trace")
        path = tmp_path / "report.md"
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main([*argv, "--report", str(path)]) == 0
        printed = console_tables(capsys.readouterr().out)
        written = markdown_tables(path.read_text())
        assert len(printed) == tables
        for table in printed:
            assert table[1], "a printed table has no rows"
            assert table in written
