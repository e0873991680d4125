"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.traces.io import load_trace
from repro.traces.stats import summarize


class TestGenerateTrace:
    def test_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        code = main([
            "generate-trace", str(path),
            "--sectors", "65536", "--days", "0.1", "--seed", "4",
        ])
        assert code == 0
        trace = load_trace(path)
        assert trace
        summary = summarize(trace, 65536)
        assert summary.written_lba_fraction == pytest.approx(0.3662, abs=0.01)
        assert "written LBA coverage" in capsys.readouterr().out

    def test_writes_binary(self, tmp_path):
        path = tmp_path / "trace.bin"
        main(["generate-trace", str(path), "--sectors", "65536",
              "--days", "0.05", "--seed", "4"])
        assert load_trace(path)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["generate-trace", None, "--sectors", "65536",
                "--days", "0.05", "--seed", "9"]
        main([argv[0], str(a), *argv[2:]])
        main([argv[0], str(b), *argv[2:]])
        assert a.read_text() == b.read_text()


class TestSimulate:
    def test_generated_workload(self, capsys):
        code = main([
            "simulate", "--blocks", "24", "--scale", "100",
            "--driver", "nftl", "-T", "10", "--days", "0.1", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Simulation report" in out
        assert "NFTL+SWL+k=0+T=10" in out

    def test_trace_file_input(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        main(["generate-trace", str(path), "--sectors", "32768",
              "--days", "0.2", "--seed", "5"])
        code = main([
            "simulate", "--trace", str(path), "--blocks", "24",
            "--scale", "100", "--driver", "ftl", "--no-swl", "--seed", "2",
        ])
        assert code == 0
        assert "FTL" in capsys.readouterr().out

    def test_reports_survival_when_nothing_wore_out(self, capsys, monkeypatch):
        # A replay that ends on the request cap has no first-failure
        # time; the cell must say so, as the sweep report does, instead
        # of printing a failure at day 0.
        from functools import partial

        import repro.cli as cli

        monkeypatch.setattr(
            cli, "run_until_first_failure",
            partial(cli.run_until_first_failure, request_cap=500),
        )
        code = main(["simulate", "--blocks", "24", "--scale", "100",
                     "--driver", "ftl", "--days", "0.1", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if "first failure" in line)
        assert "d (no failure)" in row and "> 0.0" in row

    def test_baseline_flag(self, capsys):
        main(["simulate", "--blocks", "24", "--scale", "100",
              "--driver", "nftl", "--no-swl", "--days", "0.1"])
        out = capsys.readouterr().out
        assert "SWL" not in out

    def test_multi_channel_reports_per_shard(self, capsys):
        code = main([
            "simulate", "--blocks", "24", "--scale", "100", "--driver", "ftl",
            "--channels", "2", "--striping", "page", "--swl-scope", "global",
            "--days", "0.1", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "x2[page,global]" in out
        assert "Per-shard erase distributions (2 channels)" in out
        assert "shard 0" in out and "shard 1" in out
        assert "merged" in out

    def test_bad_striping_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--channels", "2", "--striping", "diagonal"])


class TestFaultsCommand:
    def test_multi_channel_rejected(self, capsys):
        code = main([
            "faults", "--blocks", "24", "--scale", "100", "--channels", "2",
        ])
        assert code == 2
        assert "--channels must be 1" in capsys.readouterr().err

    def test_unrecovered_fault_exits_nonzero(self, capsys, monkeypatch):
        from repro.ftl.base import TranslationLayer

        monkeypatch.setattr(
            TranslationLayer,
            "failed_blocks",
            property(lambda self: frozenset({5})),
        )
        code = main([
            "faults", "--blocks", "24", "--scale", "100",
            "--soak-writes", "200", "--loss-points", "2", "--seed", "3",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "unrecovered" in out


class TestSweep:
    def test_sweep_table(self, capsys, short_trace):
        code = main([
            "sweep", "--blocks", "24", "--scale", "100", "--driver", "nftl",
            "--thresholds", "10", "--ks", "0", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "First-failure sweep" in out
        assert "vs baseline" in out
        assert "NFTL+SWL+k=0+T=10" in out

    def test_supervised_sweep_resumes_and_reports_attempts(
        self, capsys, tmp_path, short_trace
    ):
        workdir = tmp_path / "campaign"
        report_path = tmp_path / "sweep.md"
        argv = [
            "sweep", "--blocks", "24", "--scale", "100", "--driver", "ftl",
            "--thresholds", "10", "--ks", "0", "--seed", "3",
            "--resume", str(workdir), "--workers", "2",
            "--report", str(report_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Supervised first-failure sweep" in first
        assert "Attempts" in first
        document = report_path.read_text()
        assert "## Supervision" in document
        assert "| Attempts |" in document
        # Cell state persists: a re-run adopts every finished cell and
        # prints the same table without recomputing.
        assert (workdir / "cell-000" / "result.pkl").exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[:8] == second.splitlines()[:8]

    def test_resume_after_changing_the_sweep_reruns_the_changed_cell(
        self, capsys, tmp_path, short_trace
    ):
        def summary(out: str) -> list[str]:
            lines = out.splitlines()
            start = next(
                index for index, line in enumerate(lines)
                if "First failure" in line
            ) - 1
            end = start
            while end < len(lines) and lines[end].startswith(("+", "|")):
                end += 1
            return lines[start:end]

        argv = ["sweep", "--blocks", "24", "--scale", "100", "--driver", "ftl",
                "--ks", "0", "--seed", "3", "--thresholds"]
        resume = ["--resume", str(tmp_path / "campaign")]
        assert main([*argv, "10", *resume]) == 0
        capsys.readouterr()
        assert main([*argv, "5", *resume]) == 0
        resumed = summary(capsys.readouterr().out)
        assert main([*argv, "5"]) == 0
        assert resumed == summary(capsys.readouterr().out)
        assert any("T=5" in line for line in resumed)


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["serve", "--rate", "0", "--requests", "50", "--days", "0.02",
         "--blocks", "24", "--scale", "100"],
        ["trace", "{out}", "--heatmap-interval", "0", "--hours", "0.1",
         "--days", "0.02", "--blocks", "24", "--scale", "100"],
        ["trace", "{out}", "--heatmap-interval", "-5", "--hours", "0.1",
         "--days", "0.02", "--blocks", "24", "--scale", "100"],
        ["simulate", "--scale", "3"],
        ["simulate", "-T", "0", "--blocks", "24", "--scale", "100"],
        ["simulate", "--blocks", "0"],
    ], ids=["rate-0", "heatmap-interval-0", "heatmap-interval-negative",
            "scale-3", "threshold-0", "blocks-0"])
    def test_out_of_range_value_is_a_usage_error(self, argv, tmp_path, capsys):
        # An explicit zero is a value, not "flag not given", and a value
        # the library rejects is reported on one line with exit status 2.
        argv = [arg.format(out=tmp_path / "artifacts") for arg in argv]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].startswith("repro: error: ")
        assert "Traceback" not in captured.err and not captured.out


class TestTraceCommand:
    def test_exports_artifact_set(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code = main([
            "trace", str(out_dir), "--blocks", "24", "--scale", "100",
            "--hours", "1", "--days", "0.0208", "-T", "20", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Traced replay" in out
        assert "Perfetto" in out
        document = json.load(open(out_dir / "trace.chrome.json"))
        assert document["traceEvents"]
        first = json.loads(
            (out_dir / "trace.jsonl").read_text().splitlines()[0]
        )
        assert {"ts", "shard", "kind"} <= set(first)
        prom = (out_dir / "metrics.prom").read_text()
        assert "repro_flash_erases_total" in prom

    def test_simulate_telemetry_flag(self, capsys):
        code = main([
            "simulate", "--blocks", "24", "--scale", "100", "--days", "0.1",
            "-T", "10", "--seed", "2", "--telemetry",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Telemetry" in out
        assert "wear heatmaps" in out

    def test_sweep_trace_out_writes_per_cell_dirs(
        self, tmp_path, capsys, short_trace
    ):
        out_dir = tmp_path / "sweep"
        code = main([
            "sweep", "--blocks", "24", "--scale", "100", "--thresholds",
            "20", "--ks", "0", "--seed", "3", "--trace-out", str(out_dir),
        ])
        assert code == 0
        cells = sorted(p.name for p in out_dir.iterdir())
        assert len(cells) == 2  # baseline + one (T, k) point
        for cell in cells:
            assert (out_dir / cell / "metrics.prom").exists()

    def test_sweep_bare_telemetry_warns(self, capsys, short_trace):
        code = main([
            "sweep", "--blocks", "24", "--scale", "100", "--thresholds",
            "20", "--ks", "0", "--seed", "3", "--telemetry",
        ])
        assert code == 0
        assert "--trace-out" in capsys.readouterr().err


class TestLoggingOptions:
    def test_log_level_enables_diagnostics(self, capsys):
        from repro.util.diagnostics import reset_logging

        try:
            code = main([
                "--log-level", "DEBUG", "--log-channel", "leveler",
                "simulate", "--blocks", "24", "--scale", "100",
                "--days", "0.05", "-T", "10", "--seed", "2",
            ])
            assert code == 0
            assert "repro.leveler" in capsys.readouterr().err
        finally:
            reset_logging()

    def test_unknown_log_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            main(["--log-level", "LOUD", "simulate", "--blocks", "24",
                  "--scale", "100", "--days", "0.05", "--seed", "2"])
