"""Base class for traffic-generating masters."""

from __future__ import annotations

from typing import Optional

from repro.errors import ProtocolError
from repro.sim.kernel import Phase, Simulator
from repro.sim.stats import StatSet
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction


class Master:
    """A component that drives transactions into one master port.

    Subclasses implement :meth:`_start` (schedule initial activity)
    and :meth:`_on_response` (react to completions).  The base class
    wires the port callback, tracks issue/finish bookkeeping and
    offers :meth:`issue` as the single way to create traffic.
    """

    def __init__(self, sim: Simulator, port: MasterPort) -> None:
        self.sim = sim
        self.port = port
        self.name = port.name
        self.stats = StatSet(f"{port.name}.master")
        # Pre-resolved collectors: issue() runs once per transaction.
        self._stat_issued = self.stats.counter("issued")
        self._stat_issued_bytes = self.stats.counter("issued_bytes")
        self.finished_at: Optional[int] = None
        #: Optional callback ``fn(cycle)`` invoked once when the
        #: configured work completes.
        self.on_finish = None
        self._started = False
        if port.on_response is not None:
            raise ProtocolError(f"port {port.name!r} already has a master")
        port.on_response = self._on_response

    # ------------------------------------------------------------------
    # public control
    # ------------------------------------------------------------------
    def start(self, at: int = 0) -> None:
        """Begin generating traffic at cycle ``at``."""
        if self._started:
            raise ProtocolError(f"master {self.name!r} started twice")
        self._started = True
        self.sim.schedule_at(
            max(at, self.sim.now), self._start, priority=Phase.MASTER
        )

    @property
    def done(self) -> bool:
        """True once the master has finished its configured work."""
        return self.finished_at is not None

    # ------------------------------------------------------------------
    # subclass interface
    # ------------------------------------------------------------------
    def _start(self) -> None:
        raise NotImplementedError

    # repro: hot
    def _on_response(self, txn: Transaction) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    # repro: hot
    def issue(
        self,
        is_write: bool,
        addr: int,
        burst_len: int,
        bytes_per_beat: int = 16,
        qos: int = 0,
    ) -> Transaction:
        """Create a transaction stamped at the current cycle and submit it."""
        txn = Transaction(
            master=self.name,
            is_write=is_write,
            addr=addr,
            burst_len=burst_len,
            bytes_per_beat=bytes_per_beat,
            qos=qos,
            created=self.sim.now,
        )
        self._stat_issued.add()
        self._stat_issued_bytes.add(txn.nbytes)
        self.port.submit(txn)
        return txn

    def _finish(self) -> None:
        """Record completion of the configured work (idempotent)."""
        if self.finished_at is None:
            self.finished_at = self.sim.now
            if self.on_finish is not None:
                self.on_finish(self.finished_at)
