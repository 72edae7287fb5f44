"""Raw traffic counters.

A :class:`BeatCounter` is the model of a PMU-style byte counter: it
subscribes to a port's beat stream and accumulates totals.  Software
regulators (MemGuard) poll exactly this kind of counter; the
tightly-coupled IP embeds one per monitored channel.
"""

from __future__ import annotations

from repro.axi.port import MasterPort


class BeatCounter:
    """Accumulates beats and bytes observed on one master port."""

    def __init__(self, port: MasterPort) -> None:
        self.port = port
        self.master = port.name
        self.total_bytes = 0
        self.total_transactions = 0
        self._last_read_bytes = 0
        port.beat_observers.append(self._observe)

    # repro: hot
    def _observe(self, nbytes: int, now: int) -> None:
        self.total_bytes += nbytes
        self.total_transactions += 1

    def read_and_clear_delta(self) -> int:
        """Return bytes accumulated since the previous call.

        This models the read-and-reset access pattern of a software
        regulator sampling a hardware counter once per period.
        """
        delta = self.total_bytes - self._last_read_bytes
        self._last_read_bytes = self.total_bytes
        return delta

    def bandwidth_bytes_per_cycle(self, elapsed: int) -> float:
        """Average bandwidth over ``elapsed`` cycles."""
        if elapsed <= 0:
            return 0.0
        return self.total_bytes / elapsed
