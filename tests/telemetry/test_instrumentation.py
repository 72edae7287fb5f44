"""End-to-end checks: instrumented components populate the registry."""

import pytest

from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import run_experiment
from repro.soc.presets import zcu102
from repro.telemetry import MetricsRegistry, use_registry


@pytest.fixture(scope="module")
def regulated_run():
    """One small regulated run with a scoped, enabled registry."""
    metrics = MetricsRegistry(enabled=True)
    spec = RegulatorSpec(
        kind="tightly_coupled", window_cycles=256, budget_bytes=2048
    )
    with use_registry(metrics):
        result = run_experiment(
            zcu102(num_accels=2, cpu_work=2000, accel_regulator=spec)
        )
    return result, metrics


def _value(metrics, name, **labels):
    want = tuple(sorted((k, str(v)) for k, v in labels.items()))
    for entry in metrics.collect().get(name, []):
        if tuple(sorted(entry["labels"].items())) == want:
            return entry["value"]
    raise AssertionError(f"no metric {name} with labels {labels}")


class TestAxiMetrics:
    def test_txn_lifecycle_counts_consistent(self, regulated_run):
        result, metrics = regulated_run
        for master in ("cpu0", "acc0", "acc1"):
            issued = _value(metrics, "axi_txn_issued", master=master)
            accepted = _value(metrics, "axi_txn_accepted", master=master)
            completed = _value(metrics, "axi_txn_completed", master=master)
            assert issued >= accepted >= completed > 0

    def test_outstanding_histogram_observed(self, regulated_run):
        _, metrics = regulated_run
        depth = _value(metrics, "axi_outstanding_depth", master="cpu0")
        assert depth["count"] > 0

    def test_interconnect_counters(self, regulated_run):
        _, metrics = regulated_run
        assert _value(metrics, "interconnect_arb_passes") > 0
        assert _value(metrics, "interconnect_accepted") > 0


class TestDramMetrics:
    def test_row_access_kinds(self, regulated_run):
        result, metrics = regulated_run
        total = sum(
            _value(metrics, "dram_row_access", kind=kind)
            for kind in ("hit", "miss", "conflict")
        )
        assert total == _value(metrics, "dram_serviced")
        assert _value(metrics, "dram_bytes") > 0


class TestRegulatorMetrics:
    def test_grants_match_monitor_totals(self, regulated_run):
        result, metrics = regulated_run
        reg = result.platform.regulators["acc0"]
        grants = _value(
            metrics, "regulator_grants",
            master="acc0", policy="TightlyCoupledRegulator",
        )
        assert grants == reg.charged_transactions
        granted = _value(
            metrics, "regulator_granted_bytes",
            master="acc0", policy="TightlyCoupledRegulator",
        )
        assert granted == reg.charged_bytes

    def test_window_resets_reported(self, regulated_run):
        _, metrics = regulated_run
        resets = _value(
            metrics, "regulator_window_resets",
            master="acc0", policy="TightlyCoupledRegulator",
        )
        assert resets > 0

    def test_budget_gauge(self, regulated_run):
        _, metrics = regulated_run
        assert _value(metrics, "regulator_budget_bytes", master="acc0") == 2048

    def test_throttle_log_intervals_closed(self, regulated_run):
        result, _ = regulated_run
        port = result.platform.ports["acc0"]
        assert port.throttle_log, "tight budget should cause denials"
        for start, end in port.throttle_log:
            assert end > start


class TestKernelStats:
    def test_kernel_stats_always_available(self, regulated_run):
        result, _ = regulated_run
        stats = result.platform.sim.kernel_stats()
        assert stats["events_dispatched"] > 0
        assert stats["events_scheduled"] > 0
        assert (
            stats["pool_allocations"] + stats["pool_reuses"]
            == stats["events_scheduled"]
        )

    def test_kernel_stats_without_telemetry(self):
        """kernel_stats is pull-based: REPRO_TELEMETRY does not gate it."""
        with use_registry(MetricsRegistry(enabled=False)):
            result = run_experiment(zcu102(num_accels=0, cpu_work=200))
        stats = result.platform.sim.kernel_stats()
        assert stats["events_dispatched"] > 0


class TestDisabledRegistryIsEmpty:
    def test_run_with_disabled_registry_records_nothing(self):
        metrics = MetricsRegistry(enabled=False)
        with use_registry(metrics):
            run_experiment(zcu102(num_accels=1, cpu_work=200))
        assert len(metrics) == 0
        assert metrics.format_summary() == ""
