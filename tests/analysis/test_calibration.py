"""Tests for platform calibration."""

import pytest

from repro.errors import ConfigError
from repro.analysis.calibration import (
    calibrate,
    measure_peak_bandwidth,
    measure_solo_latency,
)
from repro.soc.presets import kv260, zcu102


@pytest.fixture(scope="module")
def zcu_calibration():
    return calibrate(zcu102(num_accels=1, cpu_work=600), horizon=100_000)


class TestCalibrate:
    def test_efficiency_realistic(self, zcu_calibration):
        # Row misses + refresh put streaming efficiency in 70-95%.
        assert 0.70 <= zcu_calibration.efficiency <= 0.95
        assert zcu_calibration.theoretical_peak == 16.0

    def test_solo_latency_floor(self, zcu_calibration):
        assert 0 < zcu_calibration.solo_latency_mean < 100
        assert zcu_calibration.solo_latency_p99 >= zcu_calibration.solo_latency_mean

    def test_budget_helper(self, zcu_calibration):
        budget = zcu_calibration.budget_for_fraction(0.1, 1024)
        assert budget == round(0.1 * zcu_calibration.achievable_peak * 1024)
        with pytest.raises(ConfigError):
            zcu_calibration.budget_for_fraction(0.0, 1024)
        with pytest.raises(ConfigError):
            zcu_calibration.budget_for_fraction(0.5, 0)

    def test_no_critical_master(self):
        config = zcu102(num_accels=1, cpu_work=100)
        config = config.with_masters(
            tuple(m for m in config.masters if not m.critical)
        )
        mean, p99 = measure_solo_latency(config)
        assert (mean, p99) == (0.0, 0.0)

    def test_kv260_peak_is_lower(self, zcu_calibration):
        kv = calibrate(kv260(num_accels=1, cpu_work=600), horizon=100_000)
        assert kv.achievable_peak < zcu_calibration.achievable_peak
        assert kv.theoretical_peak == 8.0

    def test_horizon_validation(self):
        with pytest.raises(ConfigError):
            measure_peak_bandwidth(zcu102(num_accels=0, cpu_work=10),
                                   horizon=100)
