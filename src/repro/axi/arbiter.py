"""Arbitration policies for the interconnect address channel.

An arbiter picks, among the master ports that currently have an
eligible head-of-line transaction, the one whose address phase is
accepted this cycle.  Two policies are provided, matching what the
commercial fabric of the modelled SoC offers:

* :class:`RoundRobinArbiter` -- the fair default of AXI crossbars.
* :class:`QosArbiter` -- AXI QoS-400 style: highest transaction QoS
  value wins, round-robin among equals.  This is the "static priority
  QoS" baseline the paper contrasts with true bandwidth regulation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigError


class Arbiter:
    """Base arbitration interface.

    Subclasses implement :meth:`select`; candidates are given as
    ``(port_index, head_transaction)`` pairs in port order.
    """

    def select(self, candidates: Sequence[tuple]) -> int:
        """Return the winning ``port_index`` among the candidates.

        Args:
            candidates: Non-empty sequence of ``(port_index, txn)``.
        """
        raise NotImplementedError


class RoundRobinArbiter(Arbiter):
    """Rotating-priority arbitration: the port after the last winner
    gets the highest priority next time."""

    def __init__(self) -> None:
        self._last_winner = -1

    def select(self, candidates: Sequence[tuple]) -> int:
        best_index: Optional[int] = None
        best_key: Optional[int] = None
        for port_index, _txn in candidates:
            # Distance past the previous winner, wrapping at a large
            # bound; smaller distance = higher rotating priority.
            distance = port_index - self._last_winner
            if distance <= 0:
                distance += 1 << 20
            if best_key is None or distance < best_key:
                best_key = distance
                best_index = port_index
        assert best_index is not None
        self._last_winner = best_index
        return best_index


class QosArbiter(Arbiter):
    """AXI QoS-400 style arbitration.

    The transaction with the highest AXI ``qos`` field wins; equal-QoS
    candidates are served round-robin.  Note this provides *ordering*
    only -- a high-QoS master still suffers when low-QoS masters keep
    the DRAM data bus busy, which is exactly the limitation the
    reproduced paper's regulator addresses.
    """

    def __init__(self) -> None:
        self._rr = RoundRobinArbiter()

    def select(self, candidates: Sequence[tuple]) -> int:
        best_qos = max(txn.qos for _i, txn in candidates)
        top = [(i, txn) for i, txn in candidates if txn.qos == best_qos]
        return self._rr.select(top)


_ARBITERS = {
    "round_robin": RoundRobinArbiter,
    "qos": QosArbiter,
}


def make_arbiter(name: str) -> Arbiter:
    """Factory: build an arbiter by policy name.

    Args:
        name: One of ``round_robin``, ``qos``.
    """
    try:
        cls = _ARBITERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown arbiter {name!r}; choose from {sorted(_ARBITERS)}"
        ) from None
    return cls()
