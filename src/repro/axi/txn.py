"""AXI transaction objects.

A :class:`Transaction` models one AXI burst: a single address-channel
handshake followed by ``burst_len`` data beats of ``bytes_per_beat``
bytes each.  The object carries its complete timestamp lifecycle so
latency decomposition (queueing vs service) falls out of the trace.

Lifecycle (all timestamps in cycles, ``-1`` = not reached yet)::

    created  -->  issued  -->  accepted  -->  mem_start  -->  completed
    (master)     (at port)    (intercon.)     (DRAM ctl)     (response)
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.errors import ProtocolError

#: Shared id source; reset per :class:`Transaction.reset_ids` for tests.
_txn_ids: Iterator[int] = itertools.count()


class Transaction:
    """One AXI burst transfer.

    Attributes:
        txn_id: Unique id within the process (monotonic).
        master: Name of the issuing master.
        is_write: Write (AW/W/B) vs read (AR/R) transaction.
        addr: Byte address of the first beat.
        burst_len: Number of data beats (AXI ``AxLEN + 1``).
        bytes_per_beat: Beat width in bytes (AXI ``AxSIZE`` decoded).
        qos: AXI QoS value (0..15, higher = more important).
        created / issued / accepted / mem_start / completed: lifecycle
            timestamps in cycles; ``-1`` until the phase is reached.
    """

    __slots__ = (
        "txn_id",
        "master",
        "is_write",
        "addr",
        "burst_len",
        "bytes_per_beat",
        "qos",
        "created",
        "issued",
        "accepted",
        "mem_start",
        "completed",
    )

    def __init__(
        self,
        master: str,
        is_write: bool,
        addr: int,
        burst_len: int,
        bytes_per_beat: int = 16,
        qos: int = 0,
        created: int = 0,
    ) -> None:
        if burst_len < 1 or burst_len > 256:
            raise ProtocolError(f"burst_len {burst_len} outside AXI4 range 1..256")
        if bytes_per_beat < 1 or bytes_per_beat & (bytes_per_beat - 1):
            raise ProtocolError(
                f"bytes_per_beat {bytes_per_beat} must be a power of two"
            )
        if not 0 <= qos <= 15:
            raise ProtocolError(f"qos {qos} outside AXI range 0..15")
        if addr < 0:
            raise ProtocolError(f"negative address {addr:#x}")
        self.txn_id = next(_txn_ids)
        self.master = master
        self.is_write = is_write
        self.addr = addr
        self.burst_len = burst_len
        self.bytes_per_beat = bytes_per_beat
        self.qos = qos
        self.created = created
        self.issued = -1
        self.accepted = -1
        self.mem_start = -1
        self.completed = -1

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total payload bytes moved by this burst."""
        return self.burst_len * self.bytes_per_beat

    @property
    def end_addr(self) -> int:
        """One past the last byte touched."""
        return self.addr + self.nbytes

    @property
    def latency(self) -> int:
        """End-to-end latency; only valid once completed."""
        if self.completed < 0:
            raise ProtocolError(f"txn {self.txn_id} not completed yet")
        return self.completed - self.created

    @property
    def service_latency(self) -> Optional[int]:
        """Cycles from interconnect acceptance to completion."""
        if self.completed < 0 or self.accepted < 0:
            return None
        return self.completed - self.accepted

    # ------------------------------------------------------------------
    # lifecycle transitions (with protocol checking)
    # ------------------------------------------------------------------
    # repro: hot -- once per transaction
    def mark_issued(self, now: int) -> None:
        if self.issued >= 0:
            raise ProtocolError(f"txn {self.txn_id} issued twice")
        self.issued = now

    def mark_accepted(self, now: int) -> None:
        if self.issued < 0:
            raise ProtocolError(f"txn {self.txn_id} accepted before issue")
        if self.accepted >= 0:
            raise ProtocolError(f"txn {self.txn_id} accepted twice")
        self.accepted = now

    def mark_mem_start(self, now: int) -> None:
        if self.accepted < 0:
            raise ProtocolError(f"txn {self.txn_id} reached memory before acceptance")
        if self.mem_start >= 0:
            raise ProtocolError(f"txn {self.txn_id} started in memory twice")
        self.mem_start = now

    # repro: hot -- once per transaction
    def mark_completed(self, now: int) -> None:
        if self.mem_start < 0:
            raise ProtocolError(f"txn {self.txn_id} completed before memory service")
        if self.completed >= 0:
            raise ProtocolError(f"txn {self.txn_id} completed twice")
        self.completed = now

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    @staticmethod
    def reset_ids() -> None:
        """Restart the global id counter (test isolation helper)."""
        global _txn_ids
        _txn_ids = itertools.count()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "W" if self.is_write else "R"
        return (
            f"Txn#{self.txn_id}[{kind} {self.master} addr={self.addr:#x} "
            f"beats={self.burst_len}x{self.bytes_per_beat}B qos={self.qos}]"
        )
