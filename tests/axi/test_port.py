"""Unit tests for MasterPort behaviour (wired into a mini system)."""

import pytest

from repro.errors import ConfigError, ProtocolError
from repro.axi.port import MasterPort, PortConfig
from repro.axi.txn import Transaction
from repro.regulation.base import BandwidthRegulator


def submit(port, sim, n=1, burst_len=4):
    txns = []
    for _ in range(n):
        txn = Transaction(
            master=port.name,
            is_write=False,
            addr=0x1000,
            burst_len=burst_len,
            created=sim.now,
        )
        port.submit(txn)
        txns.append(txn)
    return txns


class TestPortConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            PortConfig(name="p", max_outstanding=0)
        with pytest.raises(ConfigError):
            PortConfig(name="p", qos=16)


class TestLifecycle:
    def test_transaction_completes_with_ordered_timestamps(self, sim, mini):
        port = mini.add_port("m0")
        (txn,) = submit(port, sim)
        sim.run()
        assert txn.completed > txn.mem_start > txn.accepted >= txn.issued
        assert port.stats.counter("completed").value == 1
        assert port.stats.counter("bytes").value == 64
        assert port.idle

    def test_response_callback_invoked(self, sim, mini):
        port = mini.add_port("m0")
        seen = []
        port.on_response = seen.append
        (txn,) = submit(port, sim)
        sim.run()
        assert seen == [txn]

    def test_submit_without_interconnect_rejected(self, sim):
        port = MasterPort(sim, PortConfig(name="orphan"))
        with pytest.raises(ProtocolError):
            submit(port, sim)


class TestOutstandingLimit:
    def test_outstanding_never_exceeds_limit(self, sim, mini):
        port = mini.add_port("m0", max_outstanding=2)
        observed = []
        original_accept = port.accept_head

        def spy(want_write=None):
            txn = original_accept(want_write=want_write)
            observed.append(port.outstanding)
            return txn

        port.accept_head = spy
        submit(port, sim, n=10)
        sim.run()
        assert max(observed) <= 2
        assert port.stats.counter("completed").value == 10

    def test_head_blocked_at_limit(self, sim, mini):
        port = mini.add_port("m0", max_outstanding=1)
        submit(port, sim, n=2)
        # Before any simulation, force the first acceptance manually.
        assert port.head() is not None
        port.accept_head()
        assert port.outstanding == 1
        assert port.head() is None  # limit reached


class _DenyingRegulator(BandwidthRegulator):
    """Denies the first ``deny_count`` admission checks."""

    def __init__(self, deny_count, release_at):
        super().__init__()
        self.deny_count = deny_count
        self.release_at = release_at
        self.checks = 0

    def may_issue(self, txn, now):
        self.checks += 1
        if self.deny_count > 0:
            self.deny_count -= 1
            return False
        return True

    def next_opportunity(self, txn, now):
        return self.release_at


class TestRegulatorInteraction:
    def test_denied_txn_retries_at_next_opportunity(self, sim, mini):
        reg = _DenyingRegulator(deny_count=1, release_at=100)
        port = mini.add_port("m0", regulator=reg)
        (txn,) = submit(port, sim)
        sim.run()
        assert txn.accepted >= 100
        assert port.stats.counter("regulator_denials").value == 1

    def test_charge_called_on_accept(self, sim, mini):
        reg = _DenyingRegulator(deny_count=0, release_at=0)
        port = mini.add_port("m0", regulator=reg)
        submit(port, sim, n=3)
        sim.run()
        assert reg.charged_transactions == 3
        assert reg.charged_bytes == 3 * 64

    def test_double_bind_rejected(self, sim, mini):
        reg = _DenyingRegulator(0, 0)
        mini.add_port("m0", regulator=reg)
        from repro.errors import RegulationError

        with pytest.raises(RegulationError):
            reg.bind_port(mini.ports["m0"])


class _WindowRegulator(BandwidthRegulator):
    """Denies every check before ``open_at``; with ``promise`` it
    guarantees that through ``denied_until`` (the head parks)."""

    def __init__(self, open_at, promise=True):
        super().__init__()
        self.open_at = open_at
        self.promise = promise
        self.checks = 0

    def may_issue(self, txn, now):
        self.checks += 1
        return now >= self.open_at

    def next_opportunity(self, txn, now):
        return self.open_at

    def denied_until(self, txn, now):
        return self.open_at if self.promise else now


class TestDenialEpisodes:
    def _run(self, sim, mini, promise):
        reg = _WindowRegulator(open_at=400, promise=promise)
        victim = mini.add_port("m0", regulator=reg)
        other = mini.add_port("m1", max_outstanding=1)
        heads = []
        original_head = victim.head

        def spy(want_write=None):
            heads.append(sim.now)
            return original_head(want_write)

        victim.head = spy
        (txn,) = submit(victim, sim)
        # Serialized traffic on another port: every completion kicks
        # one more arbitration pass while the victim's head is denied.
        submit(other, sim, n=12)
        sim.run()
        passes = sum(1 for t in heads if t < 400)
        return txn, reg, victim, passes

    def test_parked_head_counts_one_denial_across_passes(self, sim, mini):
        txn, reg, victim, passes = self._run(sim, mini, promise=True)
        assert passes > 1
        assert txn.accepted == 400
        assert victim.stats.counter("regulator_denials").value == 1
        assert reg.checks == 2  # the denial, then the admission at 400
        assert victim.throttle_intervals() == [(0, 400)]

    def test_without_a_promise_every_pass_asks_again(self, sim, mini):
        txn, reg, victim, passes = self._run(sim, mini, promise=False)
        assert txn.accepted == 400
        assert victim.stats.counter("regulator_denials").value == passes
        assert reg.checks == passes + 1

    def test_release_unparks(self, sim, mini):
        reg = _WindowRegulator(open_at=10**6)
        port = mini.add_port("m0", regulator=reg)
        (txn,) = submit(port, sim)

        def open_early():
            reg.open_at = 250
            reg._release()

        sim.schedule_at(250, open_early)
        sim.run()
        assert txn.accepted == 250
        assert port.stats.counter("regulator_denials").value == 1


class _PerChannelRegulator(BandwidthRegulator):
    """Denies each direction until its own opening cycle (promised)."""

    def __init__(self, read_open, write_open):
        super().__init__()
        self.open_at = {False: read_open, True: write_open}

    def may_issue(self, txn, now):
        return now >= self.open_at[txn.is_write]

    def next_opportunity(self, txn, now):
        return self.open_at[txn.is_write]

    def denied_until(self, txn, now):
        return self.open_at[txn.is_write]


class TestSplitChannelParking:
    def test_parked_queue_rearms_a_retry_the_other_queue_used(self, sim, mini):
        """AR's retry at 100 absorbs AW's (deduplicated) retry at 300;
        once it fires, the parked AW queue must re-arm its own kick, as
        a fresh denial on that pass would have."""
        port = MasterPort(
            sim,
            PortConfig(name="m0", split_channels=True),
            regulator=_PerChannelRegulator(read_open=100, write_open=300),
        )
        mini.interconnect.attach_port(port)
        read = Transaction(master="m0", is_write=False, addr=0, burst_len=4)
        write = Transaction(master="m0", is_write=True, addr=64, burst_len=4)
        port.submit(read)
        port.submit(write)
        sim.run()
        assert read.accepted == 100
        assert write.accepted == 300
        assert port.stats.counter("regulator_denials").value == 2


class _EveryOtherRegulator(BandwidthRegulator):
    """Denies the first admission check of every transaction, allowing
    the retry 10 cycles later -- one ~10-cycle throttle interval per
    transaction."""

    def __init__(self):
        super().__init__()
        self.checks = 0

    def may_issue(self, txn, now):
        self.checks += 1
        return self.checks % 2 == 0

    def next_opportunity(self, txn, now):
        return now + 10


class TestThrottleRing:
    def test_limit_validation(self):
        with pytest.raises(ConfigError):
            PortConfig(name="p", throttle_log_limit=0)
        PortConfig(name="p", throttle_log_limit=None)  # unbounded is fine

    def _make_throttled(self, sim, mini_factory, limit, n):
        port = MasterPort(
            sim,
            PortConfig(name="m0", throttle_log_limit=limit),
            regulator=_EveryOtherRegulator(),
        )
        mini_factory.interconnect.attach_port(port)
        mini_factory.ports["m0"] = port
        submit(port, sim, n=n)
        sim.run()
        return port

    def test_ring_bounds_retained_intervals(self, sim, mini):
        port = self._make_throttled(sim, mini, limit=2, n=5)
        intervals = port.throttle_intervals()
        assert len(intervals) == 2
        assert port.throttle_dropped == 3
        # Dropped intervals still count in the cumulative total.
        retained = sum(end - start for start, end in intervals)
        assert port.throttle_cycles > retained

    def test_unbounded_log_keeps_everything(self, sim, mini):
        port = self._make_throttled(sim, mini, limit=None, n=5)
        intervals = port.throttle_intervals()
        assert len(intervals) == 5
        assert port.throttle_dropped == 0
        assert port.throttle_cycles == sum(
            end - start for start, end in intervals
        )

    def test_throttle_log_property_backcompat(self, sim, mini):
        """Telemetry code iterates ``port.throttle_log`` directly; the
        bounded ring keeps that shape ((start, end) pairs)."""
        port = self._make_throttled(sim, mini, limit=4096, n=3)
        log = list(port.throttle_log)
        assert log == port.throttle_intervals()
        assert all(end > start for start, end in log)

    def test_throttle_cycles_at_includes_open_interval(self, sim, mini):
        reg = _DenyingRegulator(deny_count=10**6, release_at=10**6)
        port = MasterPort(
            sim, PortConfig(name="m0"), regulator=reg
        )
        mini.interconnect.attach_port(port)
        submit(port, sim)
        seen = []
        sim.schedule(
            300,
            lambda: seen.append(
                (port.throttle_cycles, port.throttle_cycles_at(sim.now))
            ),
        )
        sim.run(until=500)
        closed, live = seen[0]
        # Mid-run the permanently-denied interval is still open: the
        # cumulative counter has not been charged yet, but the live
        # accessor includes it up to "now".
        assert closed == 0
        assert live == 300
        # The run finalizer closes it at the end of the run.
        assert port.throttle_intervals() == [(0, 500)]

    def test_last_latency_tracks_most_recent_completion(self, sim, mini):
        port = mini.add_port("m0")
        assert port.last_latency == 0
        (txn,) = submit(port, sim)
        sim.run()
        assert port.last_latency == txn.latency


class TestQosStamping:
    def test_port_qos_stamped_on_default_txns(self, sim, mini):
        port = mini.add_port("m0", qos=7)
        (txn,) = submit(port, sim)
        assert txn.qos == 7

    def test_explicit_qos_preserved(self, sim, mini):
        port = mini.add_port("m0", qos=7)
        txn = Transaction(
            master="m0", is_write=False, addr=0, burst_len=1, qos=3
        )
        port.submit(txn)
        assert txn.qos == 3


class TestBeatObservers:
    def test_observer_sees_completion_bytes(self, sim, mini):
        port = mini.add_port("m0")
        seen = []
        port.beat_observers.append(lambda nbytes, now: seen.append((nbytes, now)))
        (txn,) = submit(port, sim, burst_len=8)
        sim.run()
        assert seen == [(128, txn.completed)]
