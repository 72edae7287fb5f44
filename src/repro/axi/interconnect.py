"""The AXI crossbar between master ports and the memory controller.

The interconnect accepts at most one address phase per
``addr_cycles`` (the address-channel throughput of the fabric
switch), chooses among eligible ports with a pluggable
:class:`~repro.axi.arbiter.Arbiter`, and forwards accepted
transactions to the DRAM controller after a fixed pipeline latency.
Responses travel back with a symmetric latency.

The implementation is fully event-driven: arbitration only runs when
some port *kicks* the interconnect (new request, freed outstanding
slot, or regulator credit release), so idle cycles cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError, ProtocolError
from repro.sim.kernel import Phase, Simulator
from repro.sim.stats import StatSet
from repro.axi.arbiter import Arbiter, make_arbiter
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction


@dataclass(frozen=True)
class InterconnectConfig:
    """Static interconnect parameters.

    Attributes:
        arbiter: Arbitration policy name (see
            :func:`repro.axi.arbiter.make_arbiter`).
        addr_cycles: Minimum cycles between two address acceptances
            on one channel (1 = one handshake per cycle).
        fwd_latency: Pipeline cycles from acceptance to arrival at the
            DRAM controller queue.
        resp_latency: Pipeline cycles from DRAM completion to the
            response landing back at the master port.
        split_addr_channels: Arbitrate the read (AR) and write (AW)
            address channels independently, as a real AXI switch
            does: one read *and* one write acceptance can happen per
            ``addr_cycles``.  Combine with
            :attr:`repro.axi.port.PortConfig.split_channels` on the
            ports to remove read/write head-of-line coupling.
    """

    arbiter: str = "round_robin"
    addr_cycles: int = 1
    fwd_latency: int = 4
    resp_latency: int = 4
    split_addr_channels: bool = False

    def __post_init__(self) -> None:
        if self.addr_cycles < 1:
            raise ConfigError(f"addr_cycles must be >= 1, got {self.addr_cycles}")
        if self.fwd_latency < 0 or self.resp_latency < 0:
            raise ConfigError("interconnect latencies must be non-negative")


class Interconnect:
    """N master ports -> 1 memory port crossbar with arbitration."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[InterconnectConfig] = None,
        arbiter: Optional[Arbiter] = None,
    ) -> None:
        self.sim = sim
        self.config = config or InterconnectConfig()
        self.arbiter = arbiter or make_arbiter(self.config.arbiter)
        self.ports: List[MasterPort] = []
        self._ports_by_name = {}
        self.stats = StatSet("interconnect")
        # Pre-resolved collectors: one update per arbitration pass or
        # accepted transaction.
        self._stat_arb_passes = self.stats.counter("arb_passes")
        self._stat_accepted = self.stats.counter("accepted")
        self._stat_accepted_bytes = self.stats.counter("accepted_bytes")
        self._memory = None  # set by attach_memory
        # First free cycle per address channel: one combined channel
        # (key None) or independent read/write channels.
        if self.config.split_addr_channels:
            self._next_free = {False: 0, True: 0}
        else:
            self._next_free = {None: 0}
        self._arb_scheduled_at: Optional[int] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_port(self, port: MasterPort) -> int:
        """Register a master port; returns its port index."""
        if port.name in self._ports_by_name:
            raise ConfigError(f"duplicate port name {port.name!r}")
        port._set_interconnect(self)
        self.ports.append(port)
        self._ports_by_name[port.name] = port
        return len(self.ports) - 1

    def attach_memory(self, memory) -> None:
        """Connect the downstream memory controller.

        The controller must expose ``enqueue(txn)`` and call our
        :meth:`on_mem_complete` when a transaction finishes service.
        """
        if self._memory is not None:
            raise ProtocolError("memory controller attached twice")
        self._memory = memory
        memory.set_upstream(self)

    # ------------------------------------------------------------------
    # arbitration
    # ------------------------------------------------------------------
    def kick(self) -> None:
        """Request an arbitration pass (deduplicated, event-driven)."""
        at = max(self.sim.now, min(self._next_free.values()))
        if self._arb_scheduled_at is not None and self._arb_scheduled_at <= at:
            return
        self._arb_scheduled_at = at
        self.sim.schedule_at(at, self._arbitrate, priority=Phase.ARBITER)

    def _arbitrate(self) -> None:
        self._arb_scheduled_at = None
        self._stat_arb_passes.add()
        now = self.sim.now
        progressed = False
        for direction, free_at in self._next_free.items():
            if now < free_at:
                continue
            if self._arbitrate_channel(direction, now):
                progressed = True
        if progressed:
            # More candidates may be waiting; try again when a channel
            # frees up.
            self.kick()

    def _arbitrate_channel(self, direction: Optional[bool], now: int) -> bool:
        """One acceptance attempt on one address channel.

        Args:
            direction: False = read channel, True = write channel,
                None = the combined channel.

        Returns:
            True when a transaction was accepted.
        """
        candidates = []
        for index, port in enumerate(self.ports):
            # A port with nothing queued or no free outstanding slot
            # cannot offer a head; skip it without calling into it.
            if port._queued and port._outstanding < port._max_outstanding:
                txn = port.head(direction)
                if txn is not None:
                    candidates.append((index, txn))
        if not candidates:
            return False
        winner = self.arbiter.select(candidates)
        for index, chosen in candidates:
            if index == winner:
                break
        # Accept by the chosen transaction's own direction: on a
        # split-channel port this selects the right queue even when
        # this interconnect runs a combined channel.
        txn = self.ports[winner].accept_head(want_write=chosen.is_write)
        self._stat_accepted.add()
        self._stat_accepted_bytes.add(txn.nbytes)
        self._next_free[direction] = now + self.config.addr_cycles
        if self._memory is None:
            raise ProtocolError("no memory controller attached")
        memory = self._memory
        self.sim.schedule(
            self.config.fwd_latency,
            lambda t=txn: memory.enqueue(t),
            priority=Phase.MEMORY,
        )
        return True

    # ------------------------------------------------------------------
    # response path
    # ------------------------------------------------------------------
    def on_mem_complete(self, txn: Transaction) -> None:
        """Route a completed transaction back to its master port."""
        port = self._port_by_name(txn.master)
        self.sim.schedule(
            self.config.resp_latency,
            lambda t=txn: port.complete(t),
            priority=Phase.RESPONSE,
        )

    def _port_by_name(self, name: str) -> MasterPort:
        try:
            return self._ports_by_name[name]
        except KeyError:
            raise ProtocolError(f"response for unknown master {name!r}") from None
