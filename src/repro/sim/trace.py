"""Optional transaction tracing.

A :class:`TraceRecorder` collects one :class:`TraceRecord` per
completed transaction.  Traces serve three purposes: debugging,
trace-replay traffic generation (:mod:`repro.traffic.trace`), and
offline analysis in the examples.
"""

from __future__ import annotations

import csv
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


def _parse_bool(value: str) -> bool:
    """Parse the ``is_write`` CSV column.

    :meth:`TraceRecorder.write_csv` emits ``0``/``1``, but traces
    written by other tools (or a ``str(bool)``-style dump) carry
    ``True``/``False`` -- accept both rather than silently mis-parsing.
    """
    text = value.strip().lower()
    if text in ("true", "false"):
        return text == "true"
    return bool(int(text))


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

    def write_csv(self, path: str) -> None:
        """Dump all records to a CSV file usable by trace replay."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "master",
                    "txn_id",
                    "is_write",
                    "addr",
                    "nbytes",
                    "created",
                    "issued",
                    "accepted",
                    "completed",
                ]
            )
            for r in self._records:
                writer.writerow(
                    [
                        r.master,
                        r.txn_id,
                        int(r.is_write),
                        r.addr,
                        r.nbytes,
                        r.created,
                        r.issued,
                        r.accepted,
                        r.completed,
                    ]
                )

    @staticmethod
    def read_csv(path: str) -> List[TraceRecord]:
        """Load records produced by :meth:`write_csv`."""
        records: List[TraceRecord] = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                records.append(
                    TraceRecord(
                        master=row["master"],
                        txn_id=int(row["txn_id"]),
                        is_write=_parse_bool(row["is_write"]),
                        addr=int(row["addr"]),
                        nbytes=int(row["nbytes"]),
                        created=int(row["created"]),
                        issued=int(row["issued"]),
                        accepted=int(row["accepted"]),
                        completed=int(row["completed"]),
                    )
                )
        return records
