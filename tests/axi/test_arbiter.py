"""Unit tests for the arbitration policies."""

import pytest

from repro.errors import ConfigError
from repro.axi.arbiter import (
    QosArbiter,
    RoundRobinArbiter,
    make_arbiter,
)
from repro.axi.txn import Transaction
from repro.soc.platform import Platform
from repro.soc.presets import zcu102


def txn(qos=0):
    return Transaction(
        master="m", is_write=False, addr=0, burst_len=1, qos=qos
    )


class TestRoundRobin:
    def test_rotates_across_ports(self):
        arb = RoundRobinArbiter()
        candidates = [(0, txn()), (1, txn()), (2, txn())]
        winners = [arb.select(candidates) for _ in range(6)]
        assert winners == [0, 1, 2, 0, 1, 2]

    def test_skips_missing_ports(self):
        arb = RoundRobinArbiter()
        assert arb.select([(0, txn()), (2, txn())]) == 0
        # After 0 wins, 1 is absent so 2 is next.
        assert arb.select([(0, txn()), (2, txn())]) == 2
        assert arb.select([(0, txn()), (2, txn())]) == 0

    def test_single_candidate(self):
        arb = RoundRobinArbiter()
        assert arb.select([(3, txn())]) == 3
        assert arb.select([(3, txn())]) == 3

    def test_no_starvation_over_many_rounds(self):
        arb = RoundRobinArbiter()
        candidates = [(i, txn()) for i in range(4)]
        wins = {i: 0 for i in range(4)}
        for _ in range(400):
            wins[arb.select(candidates)] += 1
        assert all(count == 100 for count in wins.values())


class TestQosArbiter:
    def test_highest_qos_wins(self):
        arb = QosArbiter()
        assert arb.select([(0, txn(qos=1)), (1, txn(qos=9))]) == 1

    def test_equal_qos_round_robins(self):
        arb = QosArbiter()
        candidates = [(0, txn(qos=4)), (1, txn(qos=4))]
        winners = [arb.select(candidates) for _ in range(4)]
        assert winners == [0, 1, 0, 1]

    def test_low_qos_starves_while_high_present(self):
        arb = QosArbiter()
        candidates = [(0, txn(qos=0)), (1, txn(qos=15))]
        assert all(arb.select(candidates) == 1 for _ in range(10))


class TestFactory:
    def test_make_known(self):
        assert isinstance(make_arbiter("round_robin"), RoundRobinArbiter)
        assert isinstance(make_arbiter("qos"), QosArbiter)

    def test_make_unknown_raises(self):
        with pytest.raises(ConfigError):
            make_arbiter("lottery")

    def test_unknown_arbiter_fails_at_platform_build(self):
        with pytest.raises(ConfigError):
            Platform(zcu102(arbiter="fixed_priority"))
