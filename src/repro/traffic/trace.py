"""Trace-replay traffic generation.

Replays a list of :class:`~repro.sim.trace.TraceRecord` objects
captured by a previous run (or synthesized offline).  Two replay
modes are supported:

* ``timed`` -- each transaction is issued at its recorded ``created``
  cycle (open-loop; arrival times do not react to congestion).
* ``asap`` -- transactions are issued back-to-back subject to the
  port's outstanding limit (closed-loop; preserves ordering only).

Timed replay is the standard way to re-inject a measured workload
under a *different* regulation scheme and compare latencies.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import ConfigError
from repro.sim.kernel import Phase, Simulator
from repro.sim.trace import TraceRecord
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.traffic.master import Master


class TraceReplayMaster(Master):
    """Replays recorded transactions through a port.

    Args:
        sim: Simulation kernel.
        port: Port to drive.
        records: Trace records to replay (any master name; addresses
            and sizes are preserved, the master name is rewritten to
            this port's name).
        mode: ``"timed"`` or ``"asap"``.
        bytes_per_beat: Beat width used to reconstruct burst lengths.
    """

    def __init__(
        self,
        sim: Simulator,
        port: MasterPort,
        records: Sequence[TraceRecord],
        mode: str = "timed",
        bytes_per_beat: int = 16,
    ) -> None:
        super().__init__(sim, port)
        if mode not in ("timed", "asap"):
            raise ConfigError(f"unknown replay mode {mode!r}")
        if not records:
            raise ConfigError("cannot replay an empty trace")
        self.mode = mode
        self.bytes_per_beat = bytes_per_beat
        self._records: List[TraceRecord] = sorted(records, key=lambda r: r.created)
        self._next_index = 0
        self._inflight = 0

    # ------------------------------------------------------------------
    # Master interface
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self.mode == "timed":
            self._schedule_timed()
        else:
            self._fill_asap()

    # repro: hot
    def _on_response(self, txn: Transaction) -> None:
        self._inflight -= 1
        if self.mode == "asap":
            self._fill_asap()
        if self._next_index >= len(self._records) and self._inflight == 0:
            self._finish()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _burst_len(self, record: TraceRecord) -> int:
        beats = max(1, record.nbytes // self.bytes_per_beat)
        return min(beats, 256)

    def _issue_record(self, record: TraceRecord) -> None:
        self._inflight += 1
        self.issue(
            is_write=record.is_write,
            addr=record.addr,
            burst_len=self._burst_len(record),
            bytes_per_beat=self.bytes_per_beat,
        )

    def _schedule_timed(self) -> None:
        if self._next_index >= len(self._records):
            return
        record = self._records[self._next_index]
        at = max(record.created, self.sim.now)

        def fire() -> None:
            self._next_index += 1
            self._issue_record(record)
            self._schedule_timed()

        self.sim.schedule_at(at, fire, priority=Phase.MASTER)

    def _fill_asap(self) -> None:
        limit = self.port.config.max_outstanding
        while self._inflight < limit and self._next_index < len(self._records):
            record = self._records[self._next_index]
            self._next_index += 1
            self._issue_record(record)
