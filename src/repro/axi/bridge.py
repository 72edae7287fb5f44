"""Fabric-to-PS bridge: cascading two interconnect levels.

On Zynq-class SoCs the FPGA masters do not reach the DDR controller
directly: they funnel through a small number of shared high-
performance (HP/HPC) ports of the processing system, each with its
own outstanding-transaction limit.  That shared ingress port is both
a contention point *among accelerators* and the place where a
coarse-grained "aggregate" regulator would sit -- the contrast with
the paper's per-master IPs is experiment E11.

A :class:`Bridge` plays two roles:

* it is the *memory* of the upstream (fabric-level) interconnect:
  accepted fabric transactions are forwarded downstream;
* it is a *master* on the downstream (PS-level) interconnect: each
  forwarded transaction becomes a child transaction submitted
  through the bridge's port (whose ``max_outstanding`` models the HP
  port's capability, and whose optional regulator models aggregate
  regulation).

Child completions complete the parent upstream, preserving each
layer's transaction lifecycle checks.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ProtocolError
from repro.sim.kernel import Simulator
from repro.sim.stats import StatSet
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction


class Bridge:
    """Forwards an upstream interconnect's traffic through one
    downstream master port.

    Args:
        sim: Simulation kernel.
        port: The downstream :class:`~repro.axi.port.MasterPort` this
            bridge drives (its name labels the HP port; its
            outstanding limit and optional regulator model the shared
            ingress).  The bridge takes the port's ``on_response``
            slot.
    """

    def __init__(self, sim: Simulator, port: MasterPort) -> None:
        self.sim = sim
        self.port = port
        self.name = port.name
        self.stats = StatSet(f"{port.name}.bridge")
        # Pre-resolved collectors: enqueue() runs once per transaction.
        self._stat_forwarded = self.stats.counter("forwarded")
        self._upstream = None
        self._parents: Dict[int, Transaction] = {}
        if port.on_response is not None:
            raise ProtocolError(f"port {port.name!r} already has a master")
        port.on_response = self._on_child_response

    # ------------------------------------------------------------------
    # upstream-facing (the fabric interconnect's "memory")
    # ------------------------------------------------------------------
    def set_upstream(self, upstream) -> None:
        if self._upstream is not None:
            raise ProtocolError(f"bridge {self.name!r}: upstream attached twice")
        self._upstream = upstream

    # repro: hot
    def enqueue(self, txn: Transaction) -> None:
        """Accept a fabric-accepted transaction; forward downstream."""
        child = Transaction(
            master=self.name,
            is_write=txn.is_write,
            addr=txn.addr,
            burst_len=txn.burst_len,
            bytes_per_beat=txn.bytes_per_beat,
            qos=txn.qos,
            created=self.sim.now,
        )
        self._parents[child.txn_id] = txn
        self._stat_forwarded.add()
        self.port.submit(child)

    # ------------------------------------------------------------------
    # downstream-facing
    # ------------------------------------------------------------------
    def _on_child_response(self, child: Transaction) -> None:
        parent = self._parents.pop(child.txn_id, None)
        if parent is None:
            raise ProtocolError(
                f"bridge {self.name!r}: response for unknown child "
                f"{child.txn_id}"
            )
        # The parent "reached memory" when its child did.
        parent.mark_mem_start(child.mem_start)
        upstream = self._upstream
        if upstream is None:
            raise ProtocolError(f"bridge {self.name!r}: no upstream attached")
        upstream.on_mem_complete(parent)

    @property
    def in_flight(self) -> int:
        """Parent transactions currently forwarded and uncompleted."""
        return len(self._parents)
