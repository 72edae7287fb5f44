"""Unit tests for statistics collectors."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.stats import Counter, Sampler, StatSet, TimeSeries


class TestCounter:
    def test_add_default(self):
        c = Counter("x")
        c.add()
        c.add()
        assert c.value == 2

    def test_add_amount(self):
        c = Counter("x")
        c.add(64)
        assert c.value == 64

    def test_negative_rejected(self):
        c = Counter("x")
        with pytest.raises(SimulationError):
            c.add(-1)


class TestSampler:
    def test_summary_of_known_population(self):
        s = Sampler("lat")
        for v in (10, 20, 30, 40):
            s.record(v)
        assert s.count == 4
        assert s.mean == 25
        assert s.minimum == 10
        assert s.maximum == 40
        assert s.total == 100

    def test_percentile_nearest_rank(self):
        s = Sampler("lat")
        for v in range(1, 101):
            s.record(v)
        assert s.percentile(50) == 50
        assert s.percentile(95) == 95
        assert s.percentile(99) == 99
        assert s.percentile(100) == 100

    def test_percentile_unsorted_insert_order(self):
        s = Sampler("lat")
        for v in (5, 1, 4, 2, 3):
            s.record(v)
        assert s.percentile(50) == 3

    def test_percentile_bounds_checked(self):
        s = Sampler("lat")
        s.record(1)
        with pytest.raises(SimulationError):
            s.percentile(101)
        with pytest.raises(SimulationError):
            s.percentile(-1)

    def test_empty_sampler_is_safe(self):
        s = Sampler("lat")
        assert s.mean == 0.0
        assert s.percentile(99) == 0
        assert s.stdev == 0.0
        assert s.summary()["count"] == 0.0

    def test_stdev(self):
        s = Sampler("lat")
        for v in (2, 4, 4, 4, 5, 5, 7, 9):
            s.record(v)
        assert s.stdev == pytest.approx(2.138, abs=1e-3)

    def test_record_after_percentile_keeps_correctness(self):
        s = Sampler("lat")
        s.record(10)
        assert s.percentile(50) == 10
        s.record(1)
        assert s.percentile(50) == 1

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
    def test_percentile_monotone_in_pct(self, values):
        s = Sampler("lat")
        for v in values:
            s.record(v)
        pcts = [s.percentile(p) for p in (10, 50, 90, 99, 100)]
        assert pcts == sorted(pcts)
        assert s.percentile(100) == max(values)


class TestTimeSeries:
    def test_binning(self):
        ts = TimeSeries("bw", bin_width=10)
        ts.add(0, 5)
        ts.add(9, 5)
        ts.add(10, 7)
        assert ts.bins() == [10, 7]

    def test_sparse_bins_fill_zero(self):
        ts = TimeSeries("bw", bin_width=10)
        ts.add(0, 1)
        ts.add(35, 2)
        assert ts.bins() == [1, 0, 0, 2]

    def test_explicit_range(self):
        ts = TimeSeries("bw", bin_width=10)
        ts.add(25, 4)
        assert ts.bins(0, 4) == [0, 0, 4, 0, 0]

    def test_max_and_total(self):
        ts = TimeSeries("bw", bin_width=10)
        ts.add(1, 3)
        ts.add(2, 3)
        ts.add(11, 4)
        assert ts.max_bin() == 6
        assert ts.total() == 10

    def test_empty(self):
        ts = TimeSeries("bw", bin_width=10)
        assert ts.bins() == []
        assert ts.max_bin() == 0
        assert ts.total() == 0

    def test_zero_width_rejected(self):
        with pytest.raises(SimulationError):
            TimeSeries("bw", bin_width=0)


class TestStatSet:
    def test_counters_are_memoized(self):
        ss = StatSet("cmp")
        ss.counter("a").add(3)
        ss.counter("a").add(4)
        assert ss.counter("a").value == 7

    def test_counters_in_creation_order(self):
        ss = StatSet("cmp")
        ss.counter("n").add(2)
        ss.sampler("lat").record(5)
        ss.counter("a")
        counters = ss.counters()
        assert list(counters) == ["n", "a"]
        assert counters["n"] is ss.counter("n")
        # A copy: creating a counter later does not change it.
        ss.counter("late")
        assert "late" not in counters
