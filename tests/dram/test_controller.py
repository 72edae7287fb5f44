"""Unit and behaviour tests for the DRAM controller."""

import pytest

from repro.errors import ConfigError
from repro.axi.txn import Transaction
from repro.dram.address_map import AddressMap
from repro.dram.controller import DramConfig
from repro.dram.timing import DramTiming
from tests.conftest import MiniSystem


def stream(port, sim, n, stride=256, base=0, burst_len=16):
    txns = []
    for i in range(n):
        txn = Transaction(
            master=port.name, is_write=False, addr=base + i * stride,
            burst_len=burst_len, created=sim.now,
        )
        port.submit(txn)
        txns.append(txn)
    return txns


class TestConfigValidation:
    def test_scheduler_names(self):
        with pytest.raises(ConfigError):
            DramConfig(scheduler="open_page")

    def test_negative_cap(self):
        with pytest.raises(ConfigError):
            DramConfig(frfcfs_cap=-1)


class TestServiceClasses:
    def test_row_hit_counters(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0", max_outstanding=1)
        # 8 bursts in the same 2 KiB row: 1 miss + 7 hits.
        stream(port, sim, 8, stride=256)
        sim.run()
        stats = mini_norefresh.dram.stats
        assert stats.counter("row_miss").value == 1
        assert stats.counter("row_hit").value == 7

    def test_row_conflicts_on_revisit(self, sim):
        mini = MiniSystem(
            sim,
            dram_config=DramConfig(
                timing=DramTiming(),
                address_map=AddressMap(num_banks=2, row_bytes=1024),
                refresh_enabled=False,
            ),
        )
        port = mini.add_port("m0", max_outstanding=1)
        # With 2 banks x 1 KiB rows (row:bank:col layout), addresses 0
        # and 2048 are both bank 0 but different rows: after the first
        # miss every access precharges (conflict).
        for addr in (0, 2048, 0, 2048):
            stream(port, sim, 1, base=addr, burst_len=1)
        sim.run()
        stats = mini.dram.stats
        assert stats.counter("row_conflict").value == 3
        assert stats.counter("row_miss").value == 1
        assert stats.counter("row_hit").value == 0

    def test_hit_rate_reporting(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0", max_outstanding=1)
        stream(port, sim, 8)
        sim.run()
        assert mini_norefresh.dram.row_hit_rate() == pytest.approx(7 / 8)


class TestBandwidth:
    def test_streaming_sustains_near_peak(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0", max_outstanding=8)
        txns = stream(port, sim, 200, stride=256)
        sim.run()
        elapsed = max(t.completed for t in txns)
        nbytes = sum(t.nbytes for t in txns)
        peak = mini_norefresh.dram.timing.peak_bytes_per_cycle
        # Row-hit streaming with deep pipelining: >= 75% of peak.
        assert nbytes / elapsed >= 0.75 * peak

    def test_utilization_accounting(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0", max_outstanding=1)
        txns = stream(port, sim, 10, burst_len=4)
        sim.run()
        # 10 bursts x 4 beats x 1 cycle = 40 busy cycles.
        assert mini_norefresh.dram.busy_cycles == 40
        elapsed = max(t.completed for t in txns)
        assert mini_norefresh.dram.utilization(elapsed) == pytest.approx(
            40 / elapsed
        )

    def test_utilization_validates_elapsed(self, sim, mini_norefresh):
        with pytest.raises(ConfigError):
            mini_norefresh.dram.utilization(0)


class TestScheduling:
    def _two_stream_system(self, sim, scheduler, cap=4):
        mini = MiniSystem(
            sim,
            dram_config=DramConfig(
                timing=DramTiming(),
                scheduler=scheduler,
                frfcfs_cap=cap,
                refresh_enabled=False,
            ),
        )
        return mini

    def test_frfcfs_prefers_row_hits(self, sim):
        mini = self._two_stream_system(sim, "frfcfs")
        seq = mini.add_port("seq", max_outstanding=8)
        rnd = mini.add_port("rnd", max_outstanding=8)
        stream(seq, sim, 40, stride=256)           # row-hit friendly
        stream(rnd, sim, 40, stride=4096, base=1 << 20)  # row-hostile
        sim.run()
        assert mini.dram.stats.counter("frfcfs_bypasses").value > 0

    def test_fcfs_never_bypasses(self, sim):
        mini = self._two_stream_system(sim, "fcfs")
        seq = mini.add_port("seq", max_outstanding=8)
        rnd = mini.add_port("rnd", max_outstanding=8)
        stream(seq, sim, 40, stride=256)
        stream(rnd, sim, 40, stride=4096, base=1 << 20)
        sim.run()
        assert mini.dram.stats.counter("frfcfs_bypasses").value == 0

    def test_starvation_cap_bounds_bypasses(self, sim):
        cap = 2
        mini = self._two_stream_system(sim, "frfcfs", cap=cap)
        seq = mini.add_port("seq", max_outstanding=8)
        rnd = mini.add_port("rnd", max_outstanding=2)
        t_seq = stream(seq, sim, 100, stride=256)
        t_rnd = stream(rnd, sim, 10, stride=8192, base=1 << 20)
        sim.run()
        assert all(t.completed > 0 for t in t_rnd)
        # With the cap, the random stream cannot be pushed to the end.
        last_seq = max(t.completed for t in t_seq)
        last_rnd = max(t.completed for t in t_rnd)
        assert last_rnd < last_seq


class TestRefresh:
    def test_refresh_fires_periodically(self, sim, mini):
        port = mini.add_port("m0", max_outstanding=1)
        stream(port, sim, 1, burst_len=1)
        # Refresh events are daemons; keep a foreground event alive at
        # the horizon so the run covers the full interval.
        sim.schedule(10_000, lambda: None)
        sim.run(until=10_000)
        expected = 10_000 // mini.dram.timing.t_refi
        assert mini.dram.stats.counter("refreshes").value == expected

    def test_refresh_closes_rows(self, sim, mini):
        port = mini.add_port("m0", max_outstanding=1)
        stream(port, sim, 1, burst_len=1)
        horizon = mini.dram.timing.t_refi + 10
        sim.schedule(horizon, lambda: None)
        sim.run(until=horizon)
        assert all(b.open_row is None for b in mini.dram.banks)

    def test_disabled_refresh(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0", max_outstanding=1)
        stream(port, sim, 1, burst_len=1)
        sim.run(until=100_000)
        assert mini_norefresh.dram.stats.counter("refreshes").value == 0


class TestTurnaround:
    def test_rw_switch_counted(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0", max_outstanding=1)
        for i, is_write in enumerate([False, True, False]):
            txn = Transaction(
                master="m0", is_write=is_write, addr=i * 256, burst_len=1,
                created=sim.now,
            )
            port.submit(txn)
        sim.run()
        assert mini_norefresh.dram.stats.counter("turnarounds").value == 2
