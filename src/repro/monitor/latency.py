"""Per-port latency monitoring.

A :class:`LatencyMonitor` subscribes to a port's completion stream
and maintains the log-bucketed histogram a hardware latency monitor
(a small bank of range counters per channel) can afford, exactly as
the monitor half of the reproduced IP exports it.  It can split read
and write populations and windows the observation to an interval of
interest (e.g. "after the mode switch").
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.monitor.histogram import LatencyHistogram


class LatencyMonitor:
    """Histogram-based latency observer for one master port.

    Args:
        port: The observed port.
        max_exponent: Histogram shape (see
            :class:`~repro.monitor.histogram.LatencyHistogram`).
        split_rw: Keep separate read/write histograms.
        from_cycle / to_cycle: Observation window; completions whose
            ``completed`` timestamp falls outside are ignored.
    """

    def __init__(
        self,
        port: MasterPort,
        max_exponent: int = 20,
        split_rw: bool = False,
        from_cycle: int = 0,
        to_cycle: Optional[int] = None,
    ) -> None:
        if to_cycle is not None and to_cycle <= from_cycle:
            raise ConfigError("to_cycle must exceed from_cycle")
        self.port = port
        self.master = port.name
        self.split_rw = split_rw
        self.from_cycle = from_cycle
        self.to_cycle = to_cycle
        self.reads = LatencyHistogram(max_exponent)
        self.writes = LatencyHistogram(max_exponent) if split_rw else self.reads
        port.completion_observers.append(self._observe)

    # repro: hot
    def _observe(self, txn: Transaction) -> None:
        if txn.completed < self.from_cycle:
            return
        if self.to_cycle is not None and txn.completed > self.to_cycle:
            return
        target = self.writes if (self.split_rw and txn.is_write) else self.reads
        target.record(txn.latency)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def combined(self) -> LatencyHistogram:
        """Reads and writes together."""
        if not self.split_rw:
            return self.reads
        return self.reads.merge(self.writes)

    def summary(self) -> dict:
        """Mean and conservative percentile bounds of the population."""
        hist = self.combined
        return {
            "count": hist.count,
            "mean": hist.mean,
            "p50_bound": hist.percentile_bound(50),
            "p95_bound": hist.percentile_bound(95),
            "p99_bound": hist.percentile_bound(99),
        }
