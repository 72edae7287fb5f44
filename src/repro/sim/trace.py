"""Optional transaction tracing.

A :class:`TraceRecorder` collects one :class:`TraceRecord` per
completed transaction.  Traces serve debugging and offline analysis;
the Perfetto export (:mod:`repro.telemetry.perfetto`) draws them as
per-master transaction slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One completed memory transaction.

    Attributes:
        master: Name of the issuing master.
        txn_id: Per-run unique transaction id.
        is_write: True for writes.
        addr: Byte address of the first beat.
        nbytes: Total payload bytes.
        created: Cycle the master generated the request.
        issued: Cycle the address phase was presented to the port.
        accepted: Cycle the interconnect accepted the address phase.
        completed: Cycle the response returned to the master.
    """

    master: str
    txn_id: int
    is_write: bool
    addr: int
    nbytes: int
    created: int
    issued: int
    accepted: int
    completed: int

    @property
    def latency(self) -> int:
        """End-to-end latency from creation to response."""
        return self.completed - self.created

    @property
    def queueing_delay(self) -> int:
        """Cycles spent waiting before the interconnect accepted it."""
        return self.accepted - self.created


class TraceRecorder:
    """Accumulates trace records, optionally filtered by master name."""

    def __init__(self, masters: Optional[Iterable[str]] = None) -> None:
        self._filter = set(masters) if masters is not None else None
        self._records: List[TraceRecord] = []

    # repro: hot -- once per completed transaction while tracing
    def record(self, rec: TraceRecord) -> None:
        if self._filter is None or rec.master in self._filter:
            self._records.append(rec)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def for_master(self, master: str) -> List[TraceRecord]:
        return [r for r in self._records if r.master == master]
