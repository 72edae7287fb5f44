"""Soundness of ``BandwidthRegulator.denied_until``.

A port parks a denied head until ``denied_until`` and does not ask the
regulator again before then, so the promise must hold: after
``may_issue`` returned False at ``now``, it stays False at every cycle
of ``[now, denied_until)``.  The port also relies on
``next_opportunity`` never moving earlier over that span.  Charges of
other traffic may land in between (the other channel of a split
port), so the tightly-coupled cases interleave some.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.axi.port import MasterPort, PortConfig
from repro.axi.txn import Transaction
from repro.regulation.base import BandwidthRegulator
from repro.regulation.memguard import MemGuardConfig, MemGuardRegulator
from repro.regulation.tdma import TdmaRegulator, TdmaSchedule
from repro.regulation.tightly_coupled import (
    TightlyCoupledConfig,
    TightlyCoupledRegulator,
)
from repro.sim.kernel import Simulator


def txn(beats, is_write=False):
    return Transaction(
        master="m0", is_write=is_write, addr=0, burst_len=beats,
        bytes_per_beat=16,
    )


def checkpoints(now, until, limit=2048):
    """Every cycle of ``[now, until)``, or a spread sample when long."""
    if until - now <= limit:
        return list(range(now, until))
    step = (until - now) // limit + 1
    points = set(range(now, until, step))
    points.update((now + 1, until - 1))
    return sorted(points)


def assert_denial_holds(reg, head, now, during=()):
    """``may_issue`` False at ``now``: check the promise and return it.

    ``during`` is a list of ``(offset, txn)`` charges applied inside
    the span, at ``now + offset`` when that cycle is checked.
    """
    until = reg.denied_until(head, now)
    assert until >= now
    first = reg.next_opportunity(head, now)
    pending = sorted(during, key=lambda item: item[0])
    for t in checkpoints(now, until):
        while pending and now + pending[0][0] <= t:
            reg.charge(pending.pop(0)[1], t)
        assert not reg.may_issue(head, t), (now, until, t)
        assert reg.next_opportunity(head, t) >= first, (now, until, t)
    return until


class TestBaseDefault:
    def test_no_promise(self):
        class Stub(BandwidthRegulator):
            def may_issue(self, txn, now):
                return False

            def next_opportunity(self, txn, now):
                return now + 5

        assert Stub().denied_until(txn(4), 123) == 123


class TestTightlyCoupled:
    @settings(max_examples=200, deadline=None)
    @given(
        window=st.integers(8, 512),
        budget=st.integers(1, 2048),
        carryover=st.integers(0, 3),
        burst_aware=st.booleans(),
        allow_oversize=st.booleans(),
        feedback_delay=st.sampled_from([0, 0, 1, 37, 256, 1500]),
        phase=st.integers(0, 600),
        history=st.lists(
            st.tuples(st.integers(0, 300), st.integers(1, 64)), max_size=12
        ),
        gap=st.integers(0, 2000),
        beats=st.integers(1, 256),
        during=st.lists(
            st.tuples(st.integers(0, 3000), st.integers(1, 64)), max_size=4
        ),
    )
    def test_denial_holds_until_promised(
        self, window, budget, carryover, burst_aware, allow_oversize,
        feedback_delay, phase, history, gap, beats, during,
    ):
        reg = TightlyCoupledRegulator(
            Simulator(),
            TightlyCoupledConfig(
                window_cycles=window,
                budget_bytes=budget,
                carryover_windows=carryover,
                burst_aware=burst_aware,
                allow_oversize=allow_oversize,
                feedback_delay=feedback_delay,
                window_phase=phase,
            ),
        )
        now = 0
        # Charges are forced (signed counter), so heavy history leaves
        # a debt that later refills repay first.
        for step, size in history:
            now += step
            reg.charge(txn(size), now)
        now += gap
        head = txn(beats)
        if reg.may_issue(head, now):
            return
        until = assert_denial_holds(
            reg, head, now, [(offset, txn(size)) for offset, size in during]
        )
        if feedback_delay:
            assert until == reg._bucket.horizon(now)

    def test_oversize_burst_parks_until_the_bucket_is_full(self):
        cfg = TightlyCoupledConfig(window_cycles=100, budget_bytes=64)
        reg = TightlyCoupledRegulator(Simulator(), cfg)
        reg.charge(txn(4), 0)  # empty the 64-byte bucket
        head = txn(16)  # 256 bytes > capacity
        assert not reg.may_issue(head, 10)
        until = assert_denial_holds(reg, head, 10)
        assert until == 100  # first refill fills the bucket again
        assert reg.may_issue(head, until)

    def test_debt_is_repaid_before_the_head_is_admitted(self):
        cfg = TightlyCoupledConfig(window_cycles=100, budget_bytes=64)
        reg = TightlyCoupledRegulator(Simulator(), cfg)
        reg._bucket.force_consume(64 * 3, 0, allow_debt=True)  # -128
        head = txn(4)
        assert not reg.may_issue(head, 0)
        until = assert_denial_holds(reg, head, 0)
        assert until == 300
        assert reg.may_issue(head, until)

    def test_carryover_needs_only_the_missing_credit(self):
        cfg = TightlyCoupledConfig(
            window_cycles=100, budget_bytes=64, carryover_windows=2
        )
        reg = TightlyCoupledRegulator(Simulator(), cfg)
        reg.charge(txn(12), 0)  # 192 -> 0
        head = txn(8)  # 128 bytes: two refills
        assert not reg.may_issue(head, 5)
        assert assert_denial_holds(reg, head, 5) == 200

    def test_feedback_delay_promises_only_the_next_refill(self):
        cfg = TightlyCoupledConfig(
            window_cycles=100, budget_bytes=64, feedback_delay=40
        )
        reg = TightlyCoupledRegulator(Simulator(), cfg)
        reg.charge(txn(4), 0)
        reg.charge(txn(4), 0)  # true credit -64, still visible as 64
        head = txn(4)
        assert reg.may_issue(head, 10)  # the loop has not seen it yet
        assert not reg.may_issue(head, 50)
        assert assert_denial_holds(reg, head, 50) == 100

    def test_work_conserving_promises_nothing(self):
        cfg = TightlyCoupledConfig(
            window_cycles=100, budget_bytes=64, work_conserving=True
        )
        reg = TightlyCoupledRegulator(Simulator(), cfg)
        reg.attach_idle_probe(lambda: False)
        reg.charge(txn(4), 0)
        head = txn(4)
        assert not reg.may_issue(head, 10)
        assert reg.denied_until(head, 10) == 10


class TestTdma:
    @settings(max_examples=200, deadline=None)
    @given(
        slot=st.integers(1, 64),
        slots=st.integers(1, 8),
        index=st.integers(0, 7),
        beats=st.integers(1, 128),
        now=st.integers(0, 3000),
    )
    def test_denial_holds_until_promised(self, slot, slots, index, beats, now):
        reg = TdmaRegulator(TdmaSchedule(slot, slots), index % slots)
        head = txn(beats)
        if reg.may_issue(head, now):
            return
        until = assert_denial_holds(reg, head, now)
        assert until > now

    @pytest.mark.parametrize(
        "case,now,beats,until",
        [
            ("out_of_slot", 40, 4, 64),  # slot 2 of 4 x 32 starts at 64
            ("fit_failure", 90, 8, 192),  # 6 cycles left in the slot
            ("longer_than_slot", 70, 40, 192),  # only at a slot start
        ],
    )
    def test_cases(self, case, now, beats, until):
        reg = TdmaRegulator(TdmaSchedule(32, 4), 2)
        head = txn(beats)
        assert not reg.may_issue(head, now)
        assert assert_denial_holds(reg, head, now) == until
        assert reg.may_issue(head, until)


class TestMemGuard:
    @settings(max_examples=60, deadline=None)
    @given(
        period=st.integers(500, 20_000),
        budget=st.integers(64, 8192),
        latency=st.integers(0, 400),
        observe_at=st.integers(0, 40_000),
    )
    def test_throttle_holds_until_the_period_tick(
        self, period, budget, latency, observe_at
    ):
        sim = Simulator()
        reg = MemGuardRegulator(
            sim,
            MemGuardConfig(
                period_cycles=period, budget_bytes=budget,
                interrupt_latency=latency,
            ),
        )
        port = MasterPort(sim, PortConfig(name="m0"), regulator=reg)

        def overshoot():
            for observer in port.beat_observers:
                observer(budget, sim.now)

        sim.schedule_at(observe_at, overshoot)
        now = sim.run(until=observe_at + latency)
        if not reg.throttled:
            return  # the period rolled over while the IRQ was in flight
        head = txn(4)
        assert not reg.may_issue(head, now)
        until = reg.denied_until(head, now)
        assert until > now
        for t in checkpoints(now, until, limit=64):
            # Advance the kernel so the period-tick daemon runs on time.
            sim.schedule_at(t, lambda: None)
            sim.run(until=t)
            assert not reg.may_issue(head, t)
            assert reg.next_opportunity(head, t) == until
        sim.schedule_at(until, lambda: None)
        sim.run(until=until)
        assert reg.may_issue(head, until)
