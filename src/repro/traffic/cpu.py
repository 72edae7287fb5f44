"""Latency-sensitive CPU core model.

The critical actor in every experiment.  A :class:`CpuCore` models a
processor executing a loop whose progress is gated by cache-miss
latency: each "iteration" performs one cache-line transfer and then
``think_cycles`` of computation that *depends* on the returned data.
``mlp`` independent slots model the core's memory-level parallelism
(out-of-order cores overlap a few misses; ``mlp=1`` is a fully
dependent pointer chase).

Because progress is latency-bound rather than bandwidth-bound, the
core's completion time directly exposes interference on the shared
memory path -- the quantity the reproduced paper's regulation
protects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.sim.kernel import Simulator
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.traffic.master import Master
from repro.traffic.patterns import AddressPattern


@dataclass
class CpuConfig:
    """Parameters of the core's memory behaviour.

    Attributes:
        pattern: Address stream of the misses.
        num_accesses: Total cache-line transfers to perform (the
            fixed work quantum used for slowdown measurements);
            ``None`` runs forever.
        think_cycles: Computation cycles between a response and the
            next dependent miss of the same slot.
        mlp: Memory-level parallelism (concurrent independent slots).
        line_bytes: Cache-line size.
        bytes_per_beat: AXI beat width of the core's port.
        write_ratio: Fraction of accesses that are writes (0..1);
            writes are modelled as blocking like reads (write-allocate
            linefill followed by dirty eviction is dominated by the
            fill latency).
        qos: AXI QoS value stamped on the core's transactions.
    """

    pattern: AddressPattern = field(default=None)  # type: ignore[assignment]
    num_accesses: Optional[int] = 10_000
    think_cycles: int = 30
    mlp: int = 2
    line_bytes: int = 64
    bytes_per_beat: int = 16
    write_ratio: float = 0.0
    qos: int = 0

    def __post_init__(self) -> None:
        if self.pattern is None:
            raise ConfigError("CpuConfig requires an address pattern")
        if self.num_accesses is not None and self.num_accesses < 1:
            raise ConfigError("num_accesses must be >= 1 or None")
        if self.think_cycles < 0:
            raise ConfigError("think_cycles must be >= 0")
        if self.mlp < 1:
            raise ConfigError("mlp must be >= 1")
        if self.line_bytes % self.bytes_per_beat:
            raise ConfigError(
                f"line_bytes {self.line_bytes} not a multiple of beat width "
                f"{self.bytes_per_beat}"
            )
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigError("write_ratio must be in [0, 1]")


class CpuCore(Master):
    """A latency-sensitive core issuing dependent cache-line misses."""

    def __init__(
        self,
        sim: Simulator,
        port: MasterPort,
        config: CpuConfig,
        on_finish: Optional[Callable[[int], None]] = None,
    ) -> None:
        super().__init__(sim, port)
        self.config = config
        if on_finish is not None:
            self.on_finish = on_finish
        self._issued = 0
        self._completed = 0
        self._write_accumulator = 0.0
        self._burst_len = config.line_bytes // config.bytes_per_beat

    # ------------------------------------------------------------------
    # Master interface
    # ------------------------------------------------------------------
    def _start(self) -> None:
        slots = self.config.mlp
        if self.config.num_accesses is not None:
            slots = min(slots, self.config.num_accesses)
        for _ in range(slots):
            self._issue_next()

    # repro: hot
    def _on_response(self, txn: Transaction) -> None:
        self._completed += 1
        self.stats.counter("iterations").add()
        if self._all_work_issued():
            if self._completed >= (self.config.num_accesses or 0):
                self._finish()
            return
        # The next access of this slot depends on the returned data:
        # it can only issue after the think phase.
        if self.config.think_cycles:
            self.sim.schedule(self.config.think_cycles, self._issue_next)
        else:
            self._issue_next()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _all_work_issued(self) -> bool:
        limit = self.config.num_accesses
        return limit is not None and self._issued >= limit

    def _next_is_write(self) -> bool:
        # Deterministic Bresenham-style mixing of writes at the
        # configured ratio (no RNG needed).
        self._write_accumulator += self.config.write_ratio
        if self._write_accumulator >= 1.0:
            self._write_accumulator -= 1.0
            return True
        return False

    def _issue_next(self) -> None:
        if self._all_work_issued():
            return
        self._issued += 1
        self.issue(
            is_write=self._next_is_write(),
            addr=self.config.pattern.next_addr(),
            burst_len=self._burst_len,
            bytes_per_beat=self.config.bytes_per_beat,
            qos=self.config.qos,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def completed_accesses(self) -> int:
        return self._completed

    def runtime(self) -> int:
        """Cycles from start to finishing the configured work."""
        if self.finished_at is None:
            raise ConfigError(f"core {self.name!r} has not finished its work")
        return self.finished_at
