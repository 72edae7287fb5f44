"""Tests for the Master base class contract."""

import pytest

from repro.errors import ProtocolError
from repro.traffic.master import Master


class _OneShotMaster(Master):
    """Minimal master: issues ``count`` reads at start, finishes when
    all responses return."""

    def __init__(self, sim, port, count=3):
        super().__init__(sim, port)
        self.count = count
        self._done = 0

    def _start(self):
        for i in range(self.count):
            self.issue(is_write=False, addr=i * 4096, burst_len=4)

    def _on_response(self, txn):
        self._done += 1
        if self._done == self.count:
            self._finish()


class TestMasterBase:
    def test_issue_stamps_and_counts(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0")
        master = _OneShotMaster(sim, port)
        master.start()
        sim.run()
        assert master.stats.counter("issued").value == 3
        assert master.stats.counter("issued_bytes").value == 3 * 64
        assert master.done

    def test_port_can_have_only_one_master(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0")
        _OneShotMaster(sim, port)
        with pytest.raises(ProtocolError):
            _OneShotMaster(sim, port)

    def test_finish_is_idempotent(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0")
        master = _OneShotMaster(sim, port, count=1)
        calls = []
        master.on_finish = calls.append
        master.start()
        sim.run()
        first = master.finished_at
        master._finish()  # second call must not re-fire the hook
        assert master.finished_at == first
        assert calls == [first]

    def test_start_before_now_clamps(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0")
        master = _OneShotMaster(sim, port, count=1)
        sim.schedule(100, lambda: None)
        sim.run(until=100)
        master.start(at=10)  # in the past relative to now=100
        sim.run(until=10_000)
        assert master.done

    def test_issue_creates_current_timestamp(self, sim, mini_norefresh):
        port = mini_norefresh.add_port("m0")

        class Delayed(_OneShotMaster):
            def _start(self):
                self.sim.schedule(500, super()._start)

        master = Delayed(sim, port, count=1)
        master.start()
        sim.run()
        # Created stamp must reflect issue time, not construction.
        latency = port.stats.sampler("latency")
        assert master.finished_at > 500
        assert latency.maximum < 500  # latency measured from creation
