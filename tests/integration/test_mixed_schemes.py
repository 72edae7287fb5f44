"""Heterogeneous regulation: different schemes coexisting in one system.

Real deployments mix mechanisms -- legacy software MemGuard on one
actor, the new IP on another, a static-priority camera. These tests
pin down that the schemes compose: shared resources stay per-scheme,
each contract is enforced independently, and the QoS manager can
address every budgeted regulator.
"""

import pytest

from repro.errors import ConfigError
from repro.qos.budget import BandwidthBudget
from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import PlatformResult
from repro.soc.platform import MasterSpec, Platform, PlatformConfig

MB = 1 << 20

TC = RegulatorSpec(kind="tightly_coupled", window_cycles=256,
                   budget_bytes=819)  # 20% of peak
MG = RegulatorSpec(kind="memguard", period_cycles=20_000,
                   budget_bytes=64_000)  # 20% of peak
SQ = RegulatorSpec(kind="static_qos", qos=4)


def mixed_config():
    masters = (
        MasterSpec(
            name="cpu0", workload="latency_probe",
            region_base=0x1000_0000, region_extent=4 * MB,
            work=1_500, max_outstanding=4, critical=True,
        ),
        MasterSpec(
            name="tc_hog", workload="stream_read",
            region_base=0x2000_0000, region_extent=4 * MB, regulator=TC,
        ),
        MasterSpec(
            name="mg_hog", workload="stream_read",
            region_base=0x2400_0000, region_extent=4 * MB, regulator=MG,
        ),
        MasterSpec(
            name="sq_hog", workload="stream_read",
            region_base=0x2800_0000, region_extent=4 * MB, regulator=SQ,
        ),
    )
    return PlatformConfig(masters=masters)


@pytest.fixture(scope="module")
def mixed_result():
    platform = Platform(mixed_config())
    elapsed = platform.run(4_000_000)
    return platform, PlatformResult(platform, elapsed)


class TestMixedSchemes:
    def test_each_contract_enforced_independently(self, mixed_result):
        _platform, result = mixed_result
        configured = 0.2 * 16.0
        # Both budgeted hogs honour their (equal) contracts.
        assert (
            result.master("tc_hog").bandwidth_bytes_per_cycle
            <= configured * 1.05
        )
        # MemGuard overshoots within periods but stays in its regime.
        assert (
            result.master("mg_hog").bandwidth_bytes_per_cycle
            <= configured * 1.4
        )
        # The static-QoS hog has no rate bound at all: it draws well
        # above the others' contracts, limited only by contention.
        assert (
            result.master("sq_hog").bandwidth_bytes_per_cycle
            > configured * 1.3
        )

    def test_qos_manager_addresses_all_regulators(self, mixed_result):
        platform, _result = mixed_result
        assert set(platform.qos_manager.masters) == {
            "tc_hog", "mg_hog", "sq_hog"
        }
        # Budget programming works for the two budgeted kinds...
        event_tc = platform.qos_manager.set_budget(
            "tc_hog", BandwidthBudget(1.0)
        )
        event_mg = platform.qos_manager.set_budget(
            "mg_hog", BandwidthBudget(1.0)
        )
        assert event_tc.latency < event_mg.latency
        # ...and is rejected cleanly for the priority-only kind.
        from repro.errors import RegulationError

        with pytest.raises((ConfigError, RegulationError)):
            platform.qos_manager.set_budget("sq_hog", BandwidthBudget(1.0))

    def test_current_budget_reflects_kind(self, mixed_result):
        platform, _result = mixed_result
        assert platform.qos_manager.current_budget("sq_hog") is None
        tc_budget = platform.qos_manager.current_budget("tc_hog")
        assert tc_budget is not None

    def test_critical_still_finishes(self, mixed_result):
        _platform, result = mixed_result
        assert result.critical().finished_at is not None
