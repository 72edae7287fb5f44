"""Tests for the benchmark harness helpers."""

from benchmarks.common import (
    CPU_WORK,
    PEAK,
    loaded_config,
    memguard_spec,
    report,
    run_open,
    tc_spec,
)


class TestSpecHelpers:
    def test_tc_spec_budget_math(self):
        spec = tc_spec(0.10, window_cycles=1000)
        assert spec.kind == "tightly_coupled"
        assert spec.budget_bytes == round(0.10 * PEAK * 1000)

    def test_tc_spec_forwards_kwargs(self):
        spec = tc_spec(0.10, window_cycles=256, work_conserving=True,
                       carryover_windows=2)
        assert spec.work_conserving
        assert spec.carryover_windows == 2

    def test_memguard_spec_budget_math(self):
        spec = memguard_spec(0.25, period_cycles=10_000)
        assert spec.kind == "memguard"
        assert spec.budget_bytes == round(0.25 * PEAK * 10_000)

    def test_minimum_budget_is_one_byte(self):
        spec = tc_spec(1e-9, window_cycles=10)
        assert spec.budget_bytes == 1


class TestConfigHelpers:
    def test_loaded_config_shape(self):
        config = loaded_config(num_accels=3)
        names = [m.name for m in config.masters]
        assert names == ["cpu0", "acc0", "acc1", "acc2"]
        assert config.masters[0].work == CPU_WORK

    def test_run_open_runs_to_horizon(self):
        result = run_open(loaded_config(num_accels=1), horizon=20_000)
        assert result.elapsed == 20_000


class TestReport:
    def test_report_prints_and_persists(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "benchmarks.common.RESULTS_DIR", str(tmp_path)
        )
        rows = [{"a": 1, "b": 2.5}]
        text = report("unit_test", rows, "Title")
        out = capsys.readouterr().out
        assert "Title" in out and "Title" in text
        saved = (tmp_path / "unit_test.txt").read_text()
        assert "Title" in saved
        assert "2.5" in saved
