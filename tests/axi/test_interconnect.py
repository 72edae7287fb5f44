"""Unit tests for the interconnect crossbar."""

import pytest

from repro.errors import ConfigError, ProtocolError
from repro.axi.interconnect import Interconnect, InterconnectConfig
from repro.axi.txn import Transaction
from repro.sim.kernel import Simulator
from tests.conftest import MiniSystem


def submit(port, sim, n=1, burst_len=4):
    txns = []
    for _ in range(n):
        txn = Transaction(
            master=port.name, is_write=False, addr=0x1000, burst_len=burst_len,
            created=sim.now,
        )
        port.submit(txn)
        txns.append(txn)
    return txns


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            InterconnectConfig(addr_cycles=0)
        with pytest.raises(ConfigError):
            InterconnectConfig(fwd_latency=-1)


class TestWiring:
    def test_duplicate_port_name_rejected(self, sim, mini):
        mini.add_port("m0")
        with pytest.raises(ConfigError):
            mini.add_port("m0")

    def test_double_memory_attach_rejected(self, sim, mini):
        from repro.dram.controller import DramController

        with pytest.raises(ProtocolError):
            mini.interconnect.attach_memory(DramController(sim))

    def test_arbitrate_without_memory_rejected(self):
        sim = Simulator()
        ic = Interconnect(sim)
        from repro.axi.port import MasterPort, PortConfig

        port = MasterPort(sim, PortConfig(name="m0"))
        ic.attach_port(port)
        submit(port, sim)
        with pytest.raises(ProtocolError):
            sim.run()


class TestArbitration:
    def test_one_acceptance_per_addr_cycle(self, sim):
        mini = MiniSystem(
            sim, interconnect_config=InterconnectConfig(addr_cycles=3)
        )
        port = mini.add_port("m0")
        txns = submit(port, sim, n=4)
        sim.run()
        accepts = sorted(t.accepted for t in txns)
        for earlier, later in zip(accepts, accepts[1:]):
            assert later - earlier >= 3

    def test_fair_share_between_equal_ports(self, sim, mini):
        a = mini.add_port("a", max_outstanding=2)
        b = mini.add_port("b", max_outstanding=2)
        ta = submit(a, sim, n=20)
        tb = submit(b, sim, n=20)
        sim.run()
        # Round-robin: interleaved acceptance; completion counts equal.
        assert a.stats.counter("completed").value == 20
        assert b.stats.counter("completed").value == 20
        # Mean acceptance times should be close (fairness).
        mean_a = sum(t.accepted for t in ta) / 20
        mean_b = sum(t.accepted for t in tb) / 20
        assert abs(mean_a - mean_b) < 100

    def test_accepted_counter(self, sim, mini):
        port = mini.add_port("m0")
        submit(port, sim, n=5)
        sim.run()
        assert mini.interconnect.stats.counter("accepted").value == 5
        assert mini.interconnect.stats.counter("accepted_bytes").value == 5 * 64


def queued_passes(sim, interconnect):
    """Arbitration passes waiting in the event queue."""
    queue = getattr(sim._queue, "inner", sim._queue)  # unwrap sanitizer
    return [entry for entry in queue._heap if entry[3] == interconnect._arbitrate]


class TestReKick:
    """After an acceptance, another pass is queued only if some port
    is still ready (something queued and a free outstanding slot)."""

    def test_no_pass_after_acceptance_empties_every_port(self, sim, mini):
        port = mini.add_port("m0")
        submit(port, sim)
        assert len(queued_passes(sim, mini.interconnect)) == 1
        assert sim.step() == 0  # the pass accepts the only transaction
        assert port.queue_depth == 0
        assert mini.interconnect._arb_scheduled_at is None
        assert queued_passes(sim, mini.interconnect) == []

    def test_no_pass_after_acceptance_fills_every_port(self, sim, mini):
        port = mini.add_port("m0", max_outstanding=1)
        submit(port, sim, n=3)
        assert sim.step() == 0
        assert port.outstanding == 1 and port.queue_depth == 2
        assert mini.interconnect._arb_scheduled_at is None
        assert queued_passes(sim, mini.interconnect) == []
        # The completion frees the slot and kicks: all three finish.
        sim.run()
        assert port.stats.counter("completed").value == 3

    def test_pass_follows_acceptance_while_a_port_is_ready(self, sim, mini):
        full = mini.add_port("full", max_outstanding=1)
        ready = mini.add_port("ready", max_outstanding=2)
        submit(full, sim, n=2)
        submit(ready, sim, n=2)
        assert sim.step() == 0
        assert mini.interconnect._arb_scheduled_at == 1  # next free cycle
        (entry,) = queued_passes(sim, mini.interconnect)
        assert entry[0] == 1


class TestLatencies:
    def test_min_latency_includes_pipeline_stages(self, sim):
        cfg = InterconnectConfig(fwd_latency=4, resp_latency=4)
        mini = MiniSystem(sim, interconnect_config=cfg)
        port = mini.add_port("m0")
        (txn,) = submit(port, sim, burst_len=1)
        sim.run()
        # fwd(4) + row miss cmd (28) + 1 beat + resp(4) lower bound.
        assert txn.latency >= 4 + 28 + 1 + 4

    def test_zero_latency_interconnect_works(self, sim):
        cfg = InterconnectConfig(fwd_latency=0, resp_latency=0)
        mini = MiniSystem(sim, interconnect_config=cfg)
        port = mini.add_port("m0")
        (txn,) = submit(port, sim, burst_len=1)
        sim.run()
        assert txn.completed > 0


class TestQosArbitration:
    def test_high_qos_port_has_lower_queueing(self, sim):
        mini = MiniSystem(
            sim, interconnect_config=InterconnectConfig(arbiter="qos")
        )
        hi = mini.add_port("hi", qos=15, max_outstanding=4)
        lo = mini.add_port("lo", qos=0, max_outstanding=4)
        thi = submit(hi, sim, n=30)
        tlo = submit(lo, sim, n=30)
        sim.run()
        mean_hi = sum(t.accepted - t.issued for t in thi) / 30
        mean_lo = sum(t.accepted - t.issued for t in tlo) / 30
        assert mean_hi < mean_lo
