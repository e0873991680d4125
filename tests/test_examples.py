"""Smoke tests: the fast example scripts run end-to-end, and every
example script (plus ``benchmarks/perf_trajectory.py`` and ``scripts/``)
imports."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES_DIR = ROOT / "examples"

#: Scripts that import library names but that nothing else imports: a
#: name removed from the library cannot rot in them unseen.
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py")) + [
    ROOT / "benchmarks" / "perf_trajectory.py"
] + sorted((ROOT / "scripts").glob("*.py"))


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


def load_example(name: str):
    return load_script(EXAMPLES_DIR / f"{name}.py")


class TestExampleScripts:
    def test_examples_exist(self):
        expected = {
            "quickstart.py",
            "mobile_pc_endurance.py",
            "disk_cache_wear.py",
            "bet_tuning.py",
            "crash_recovery.py",
            "mlc_vs_slc.py",
            "workload_comparison.py",
        }
        present = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert expected <= present

    def test_quickstart_runs(self, capsys):
        module = load_example("quickstart")
        module.main()
        out = capsys.readouterr().out
        assert "Erase-count distribution" in out
        assert "deviation" in out

    def test_crash_recovery_runs(self, capsys):
        module = load_example("crash_recovery")
        module.main()
        out = capsys.readouterr().out
        assert "verified intact" in out
        assert "ok" in out

    @pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
    def test_long_examples_importable(self, path):
        # Import only: every script runs under a __main__ guard, and the
        # long-running ones are exercised manually.  Importing must at
        # least succeed and expose a main().
        module = load_script(path)
        assert callable(module.main)
