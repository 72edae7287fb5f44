"""Tests for run comparison utilities."""

import pytest

from repro.analysis.compare import critical_summary
from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import run_experiment
from repro.soc.presets import zcu102


@pytest.fixture(scope="module")
def pair():
    unreg = run_experiment(zcu102(num_accels=2, cpu_work=800))
    spec = RegulatorSpec(
        kind="tightly_coupled", window_cycles=256, budget_bytes=410
    )
    reg = run_experiment(
        zcu102(num_accels=2, cpu_work=800, accel_regulator=spec)
    )
    return unreg, reg


class TestCriticalSummary:
    def test_summary_keys_and_direction(self, pair):
        summary = critical_summary(*pair)
        assert summary["p99_ratio"] < 1.0
        assert summary["runtime_ratio"] < 1.0
        assert "mean_ratio" in summary
