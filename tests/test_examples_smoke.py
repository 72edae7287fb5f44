"""Smoke tests: the example scripts run and say what they promise.

Examples are part of the public API surface; a refactor that breaks
them should fail CI. Each example runs in a subprocess (as a user
would invoke it); the fastest one is executed here, the rest are
import-checked so syntax/API drift is still caught cheaply.
"""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


class TestExampleInventory:
    def test_expected_examples_present(self):
        assert set(ALL_EXAMPLES) >= {
            "quickstart.py",
            "interference_study.py",
            "qos_partitioning.py",
            "dynamic_reconfiguration.py",
            "hierarchical_soc.py",
            "regulator_comparison.py",
        }

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_examples_compile(self, name):
        py_compile.compile(str(EXAMPLES_DIR / name), doraise=True)


class TestQuickstartRuns:
    def test_quickstart_end_to_end(self):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ},
        )
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert "isolation baseline" in out
        assert "unregulated" in out
        assert "tightly-coupled" in out
        assert "slowdown" in out
