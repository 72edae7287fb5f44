"""Unit tests for the counter, gauge and histogram handle classes."""

import pytest

from repro.errors import ConfigError
from repro.telemetry.registry import DEFAULT_BUCKETS, Counter, Gauge, Histogram


class TestHandles:
    def test_counter_accumulates(self):
        c = Counter("requests", (("master", "cpu0"),))
        c.inc()
        c.inc(5)
        assert c.snapshot() == 6

    def test_gauge_set_inc_dec(self):
        g = Gauge("depth", ())
        g.set(10)
        g.inc(3)
        g.dec()
        assert g.snapshot() == 12

    def test_histogram_buckets_and_summary(self):
        h = Histogram("lat", (), bounds=(2, 4, 8))
        for v in (1, 2, 3, 5, 100):
            h.observe(v)
        assert h.count == 5
        assert h.overflow == 1  # 100 beyond the last bound
        assert h.maximum == 100
        summary = h.summary()
        assert summary["count"] == 5.0
        assert summary["max"] == 100.0

    def test_histogram_empty_percentiles(self):
        h = Histogram("lat", ())
        assert h.percentile_bound(50) == 0
        assert h.mean == 0.0
        with pytest.raises(ConfigError):
            h.percentile_bound(0)

    def test_histogram_overflow_percentile_uses_maximum(self):
        h = Histogram("lat", (), bounds=(2, 4))
        h.observe(1000)
        assert h.percentile_bound(99) == 1000

    def test_histogram_bounds_validation(self):
        with pytest.raises(ConfigError):
            Histogram("bad", (), bounds=())
        with pytest.raises(ConfigError):
            Histogram("bad", (), bounds=(4, 2))

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
