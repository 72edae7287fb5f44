"""Streaming DMA accelerator model (the bandwidth hog).

An FPGA accelerator's memory interface is typically a DMA engine that
moves long bursts and keeps the port's full outstanding capability in
flight -- it is bandwidth-bound, not latency-bound.  This is the
best-effort actor whose traffic the paper's regulator throttles.

Features:

* configurable burst length, read/write mix and address pattern;
* an in-flight target (defaults to the port's outstanding limit);
* an optional duty cycle (active/idle phases) to model accelerators
  with compute phases between DMA phases;
* an optional byte budget after which the accelerator stops (for
  fixed-work completion-time experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigError
from repro.sim.kernel import Phase, Simulator
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.traffic.master import Master
from repro.traffic.patterns import AddressPattern


@dataclass
class AcceleratorConfig:
    """Parameters of a streaming accelerator.

    Attributes:
        pattern: Address stream (sequential for a classic DMA).
        burst_beats: Beats per burst (AXI ``AxLEN + 1``).
        bytes_per_beat: Beat width in bytes.
        write_ratio: Fraction of bursts that are writes.
        inflight_target: Submitted-but-uncompleted transaction target;
            ``None`` uses the port's ``max_outstanding``.
        total_bytes: Stop after moving this many bytes (``None`` =
            run forever).
        active_cycles / idle_cycles: Optional duty cycle; both zero
            means always active.
        qos: AXI QoS value for the accelerator's transactions.
    """

    pattern: AddressPattern = field(default=None)  # type: ignore[assignment]
    burst_beats: int = 16
    bytes_per_beat: int = 16
    write_ratio: float = 0.0
    inflight_target: Optional[int] = None
    total_bytes: Optional[int] = None
    active_cycles: int = 0
    idle_cycles: int = 0
    qos: int = 0

    def __post_init__(self) -> None:
        if self.pattern is None:
            raise ConfigError("AcceleratorConfig requires an address pattern")
        if not 1 <= self.burst_beats <= 256:
            raise ConfigError("burst_beats must be 1..256")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigError("write_ratio must be in [0, 1]")
        if self.inflight_target is not None and self.inflight_target < 1:
            raise ConfigError("inflight_target must be >= 1 or None")
        if self.total_bytes is not None and self.total_bytes < 1:
            raise ConfigError("total_bytes must be >= 1 or None")
        if (self.active_cycles > 0) != (self.idle_cycles > 0):
            raise ConfigError("duty cycle requires both active and idle cycles")
        if self.active_cycles < 0 or self.idle_cycles < 0:
            raise ConfigError("duty-cycle phases must be non-negative")


class StreamAccelerator(Master):
    """A DMA-style master that saturates its port unless regulated."""

    def __init__(
        self, sim: Simulator, port: MasterPort, config: AcceleratorConfig
    ) -> None:
        super().__init__(sim, port)
        self.config = config
        self._inflight_target = config.inflight_target or port.config.max_outstanding
        self._inflight = 0
        self._issued_bytes = 0
        self._completed_bytes = 0
        self._write_accumulator = 0.0
        self._active = True

    # ------------------------------------------------------------------
    # Master interface
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self.config.active_cycles:
            self.sim.schedule(
                self.config.active_cycles, self._enter_idle, priority=Phase.MASTER
            )
        self._fill()

    # repro: hot
    def _on_response(self, txn: Transaction) -> None:
        self._inflight -= 1
        self._completed_bytes += txn.nbytes
        if self._budget_exhausted():
            if self._inflight == 0:
                self._finish()
            return
        self._fill()

    # ------------------------------------------------------------------
    # duty cycle
    # ------------------------------------------------------------------
    def _enter_idle(self) -> None:
        if self._budget_exhausted():
            return  # work done; stop toggling phases
        self._active = False
        self.sim.schedule(
            self.config.idle_cycles, self._enter_active, priority=Phase.MASTER
        )

    def _enter_active(self) -> None:
        if self._budget_exhausted():
            return
        self._active = True
        self.sim.schedule(
            self.config.active_cycles, self._enter_idle, priority=Phase.MASTER
        )
        self._fill()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _budget_exhausted(self) -> bool:
        limit = self.config.total_bytes
        return limit is not None and self._issued_bytes >= limit

    def _next_is_write(self) -> bool:
        self._write_accumulator += self.config.write_ratio
        if self._write_accumulator >= 1.0:
            self._write_accumulator -= 1.0
            return True
        return False

    def _fill(self) -> None:
        """Top the pipeline up to the in-flight target."""
        while (
            self._active
            and self._inflight < self._inflight_target
            and not self._budget_exhausted()
        ):
            self._inflight += 1
            txn = self.issue(
                is_write=self._next_is_write(),
                addr=self.config.pattern.next_addr(),
                burst_len=self.config.burst_beats,
                bytes_per_beat=self.config.bytes_per_beat,
                qos=self.config.qos,
            )
            self._issued_bytes += txn.nbytes

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def moved_bytes(self) -> int:
        """Bytes whose responses have returned."""
        return self._completed_bytes

    def throughput_bytes_per_cycle(self, elapsed: int) -> float:
        if elapsed <= 0:
            raise ConfigError(f"elapsed must be positive, got {elapsed}")
        return self._completed_bytes / elapsed
