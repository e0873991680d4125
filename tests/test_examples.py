"""Smoke tests: the fast example scripts run end-to-end."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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
            "multi_tenant_endurance.py",
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

    @pytest.mark.parametrize(
        "name",
        ["mobile_pc_endurance", "disk_cache_wear", "bet_tuning", "mlc_vs_slc",
         "workload_comparison", "multi_tenant_endurance"],
    )
    def test_long_examples_importable(self, name):
        # The long-running examples are exercised manually; importing them
        # must at least succeed and expose a main().
        module = load_example(name)
        assert callable(module.main)
