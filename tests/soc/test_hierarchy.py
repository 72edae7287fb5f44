"""Tests for the two-level (fabric + PS) platform and the bridge."""

import pytest

from repro.errors import ConfigError, ProtocolError
from repro.axi.bridge import Bridge
from repro.regulation.factory import RegulatorSpec
from repro.soc.hierarchy import TwoLevelConfig, TwoLevelPlatform
from repro.soc.platform import MasterSpec

MB = 1 << 20


def cpu_spec(name="cpu0", work=800, critical=True):
    return MasterSpec(
        name=name, workload="latency_probe",
        region_base=0x1000_0000, region_extent=4 * MB,
        work=work, max_outstanding=4, critical=critical,
    )


def accel_spec(name, regulator=None, work=None):
    bases = {"acc0": 0x2000_0000, "acc1": 0x2040_0000, "acc2": 0x2080_0000,
             "acc3": 0x20C0_0000}
    return MasterSpec(
        name=name, workload="stream_read",
        region_base=bases[name], region_extent=4 * MB,
        work=work, regulator=regulator,
    )


class TestConfigValidation:
    def test_duplicate_names(self):
        with pytest.raises(ConfigError):
            TwoLevelConfig(cpus=(cpu_spec("x"),), accels=(accel_spec("acc0"),),
                           bridge_name="x")

    def test_needs_masters(self):
        with pytest.raises(ConfigError):
            TwoLevelConfig()

    def test_bridge_outstanding(self):
        with pytest.raises(ConfigError):
            TwoLevelConfig(cpus=(cpu_spec(),), bridge_outstanding=0)


class TestBridgeUnit:
    def test_double_master_rejected(self, sim, mini):
        port = mini.add_port("hp")
        Bridge(sim, port)
        with pytest.raises(ProtocolError):
            Bridge(sim, port)

    def test_double_upstream_rejected(self, sim, mini):
        port = mini.add_port("hp")
        bridge = Bridge(sim, port)
        bridge.set_upstream(object())
        with pytest.raises(ProtocolError):
            bridge.set_upstream(object())


class TestTwoLevelExecution:
    def _platform(self, accel_regulator=None, bridge_regulator=None,
                  accels=("acc0", "acc1")):
        config = TwoLevelConfig(
            cpus=(cpu_spec(),),
            accels=tuple(accel_spec(n, regulator=accel_regulator)
                         for n in accels),
            bridge_regulator=bridge_regulator,
        )
        return TwoLevelPlatform(config)

    def test_runs_and_completes_critical(self):
        platform = self._platform()
        end = platform.run(4_000_000)
        assert platform.masters["cpu0"].done
        assert end == platform.masters["cpu0"].finished_at

    def test_traffic_flows_through_bridge(self):
        platform = self._platform()
        platform.run(4_000_000)
        forwarded = platform.bridge.stats.counter("forwarded").value
        acc_completed = sum(
            platform.ports[n].stats.counter("completed").value
            for n in ("acc0", "acc1")
        )
        assert forwarded >= acc_completed > 0
        assert platform.bridge.in_flight <= platform.config.bridge_outstanding

    def test_cpu_bypasses_bridge(self):
        platform = self._platform()
        platform.run(4_000_000)
        # CPU transactions never appear at the fabric level.
        assert platform.ports["cpu0"].stats.counter("completed").value == 800
        fabric_names = {p.name for p in platform.fabric.ports}
        assert "cpu0" not in fabric_names

    def test_bridge_port_limits_accel_throughput(self):
        wide = self._platform()
        wide.run(300_000, stop_when_critical_done=False)
        bw_wide = sum(
            wide.ports[n].stats.counter("bytes").value for n in ("acc0", "acc1")
        )

        config = TwoLevelConfig(
            cpus=(cpu_spec(),),
            accels=(accel_spec("acc0"), accel_spec("acc1")),
            bridge_outstanding=1,
        )
        narrow = TwoLevelPlatform(config)
        narrow.run(300_000, stop_when_critical_done=False)
        bw_narrow = sum(
            narrow.ports[n].stats.counter("bytes").value
            for n in ("acc0", "acc1")
        )
        assert bw_narrow < bw_wide * 0.6

    def test_aggregate_regulator_bounds_total(self):
        bridge_reg = RegulatorSpec(
            kind="tightly_coupled", window_cycles=1024, budget_bytes=3277
        )  # ~20% of peak aggregate
        platform = self._platform(bridge_regulator=bridge_reg)
        horizon = 300_000
        platform.run(horizon, stop_when_critical_done=False)
        total = sum(
            platform.ports[n].stats.counter("bytes").value
            for n in ("acc0", "acc1")
        )
        assert total / horizon <= (3277 / 1024) * 1.05

    def test_per_master_regulators_at_fabric_level(self):
        accel_reg = RegulatorSpec(
            kind="tightly_coupled", window_cycles=1024, budget_bytes=1638
        )
        platform = self._platform(accel_regulator=accel_reg)
        horizon = 300_000
        platform.run(horizon, stop_when_critical_done=False)
        for name in ("acc0", "acc1"):
            rate = platform.ports[name].stats.counter("bytes").value / horizon
            assert rate <= (1638 / 1024) * 1.05

    def test_qos_manager_sees_all_regulators(self):
        accel_reg = RegulatorSpec(kind="tightly_coupled")
        bridge_reg = RegulatorSpec(kind="tightly_coupled")
        platform = self._platform(
            accel_regulator=accel_reg, bridge_regulator=bridge_reg
        )
        assert set(platform.qos_manager.masters) == {"hp0", "acc0", "acc1"}
