"""Software MemGuard-style regulation (the baseline).

Models the classic OS-level bandwidth reservation mechanism
(MemGuard, RTAS'13) as deployed on the modelled SoC:

* budgets are enforced per **regulation period** equal to the OS
  timer tick (~1 ms; 250k fabric cycles by default) -- orders of
  magnitude coarser than the hardware IP's window;
* consumption is observed through a **PMU byte counter**; when it
  crosses the budget an overflow **interrupt** fires and the software
  handler stalls the offending actor -- but only after
  ``interrupt_latency`` cycles, during which traffic keeps flowing
  (the overshoot the paper measures);
* the actor is released at the **next period boundary**, where the
  budget reloads (classic MemGuard semantics: unused budget is lost,
  excess is not carried as debt);
* reconfiguration (a new budget) is applied by software at the next
  period boundary;
* every period tick and every overflow interrupt costs CPU time,
  tracked in ``overhead_cycles`` for the E7 comparison.

Note the structural limitation the paper stresses: software MemGuard
can only throttle actors the OS controls.  Throttling an FPGA DMA
master requires either cooperation from the accelerator or pausing it
wholesale; we model the mechanism faithfully anyway so its *timing*
properties (coarse period + interrupt latency) can be compared on
equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import RegulationError
from repro.sim.kernel import Phase, Simulator
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.regulation.base import BandwidthRegulator


class ReclaimPool:
    """The global spare-budget pool of MemGuard's reclaim mechanism.

    At every period start each participating regulator predicts its
    need (last period's usage) and donates the unneeded part of its
    budget; regulators that exhaust their budget mid-period draw
    extra chunks from the pool before throttling.  The pool empties
    and refills every period, so reclaim redistributes but never
    inflates the global reservation.
    """

    def __init__(self) -> None:
        self._available = 0
        self._period_start = -1
        self.donated_total = 0
        self.reclaimed_total = 0

    def start_period(self, now: int) -> None:
        """Reset the pool at a period boundary (idempotent per cycle)."""
        if now != self._period_start:
            self._period_start = now
            self._available = 0

    def donate(self, amount: int) -> None:
        if amount < 0:
            raise RegulationError(f"cannot donate negative amount {amount}")
        self._available += amount
        self.donated_total += amount

    def take(self, amount: int) -> int:
        """Grant up to ``amount`` bytes; returns what was granted."""
        if amount < 0:
            raise RegulationError(f"cannot take negative amount {amount}")
        granted = min(amount, self._available)
        self._available -= granted
        self.reclaimed_total += granted
        return granted

    @property
    def available(self) -> int:
        return self._available


@dataclass(frozen=True)
class MemGuardConfig:
    """Static configuration of the software regulator.

    Attributes:
        period_cycles: Regulation period (OS tick) in fabric cycles.
            250_000 cycles = 1 ms at 250 MHz.
        budget_bytes: Bytes allowed per period.
        interrupt_latency: Cycles from PMU overflow to the handler
            actually stalling the actor (IRQ entry + handler work).
        tick_overhead: CPU cycles consumed by each period tick.
        interrupt_overhead: CPU cycles consumed by each overflow IRQ.
        reclaim: Participate in the shared spare-budget pool
            (MemGuard's predictive reclaim): donate the budget slice
            last period's usage suggests will go unused, draw
            ``reclaim_chunk`` grants before throttling.
        reclaim_chunk: Bytes granted per pool request.
    """

    period_cycles: int = 250_000
    budget_bytes: int = 1_000_000
    interrupt_latency: int = 500
    tick_overhead: int = 300
    interrupt_overhead: int = 600
    reclaim: bool = False
    reclaim_chunk: int = 8_192

    def __post_init__(self) -> None:
        if self.period_cycles < 1:
            raise RegulationError("period_cycles must be >= 1")
        if self.budget_bytes < 1:
            raise RegulationError("budget_bytes must be >= 1")
        if self.interrupt_latency < 0:
            raise RegulationError("interrupt_latency must be >= 0")
        if self.tick_overhead < 0 or self.interrupt_overhead < 0:
            raise RegulationError("overheads must be >= 0")
        if self.reclaim_chunk < 1:
            raise RegulationError("reclaim_chunk must be >= 1")

    def bandwidth_bytes_per_cycle(self) -> float:
        """The long-run rate this configuration enforces."""
        return self.budget_bytes / self.period_cycles


class MemGuardRegulator(BandwidthRegulator):
    """Periodic software bandwidth reservation with IRQ throttling."""

    def __init__(
        self,
        sim: Simulator,
        config: MemGuardConfig,
        pool: Optional[ReclaimPool] = None,
    ) -> None:
        super().__init__()
        self.sim = sim
        self.config = config
        self.pool = pool
        if config.reclaim and pool is None:
            raise RegulationError("reclaim enabled but no ReclaimPool given")
        self._budget = config.budget_bytes
        self._pending_budget = None
        self._spent = 0
        self._extra = 0  # reclaimed grant for the current period
        self._last_usage = 0
        self._throttled = False
        self._interrupt_pending = False
        self.overhead_cycles = 0
        self.interrupt_count = 0
        self.tick_count = 0
        self.reconfig_count = 0
        self.reclaimed_bytes = 0
        self._period_start = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _on_bind(self, port: MasterPort) -> None:
        # The PMU counts actual data-bus traffic of this master.
        port.beat_observers.append(self._pmu_observe)
        self.sim.schedule(
            self.config.period_cycles, self._period_tick,
            priority=Phase.REGULATOR, daemon=True,
        )

    # ------------------------------------------------------------------
    # PMU + interrupt machinery
    # ------------------------------------------------------------------
    def _allowance(self) -> int:
        """Budget plus any reclaimed grants for this period."""
        return self._budget + self._extra

    def _pmu_observe(self, nbytes: int, now: int) -> None:
        self._spent += nbytes
        if (
            self._spent >= self._allowance()
            and not self._throttled
            and not self._interrupt_pending
        ):
            self._interrupt_pending = True
            self.sim.schedule(
                self.config.interrupt_latency,
                self._overflow_interrupt,
                priority=Phase.REGULATOR,
            )

    def _overflow_interrupt(self) -> None:
        self._interrupt_pending = False
        self.interrupt_count += 1
        self.overhead_cycles += self.config.interrupt_overhead
        # The period may have rolled over while the IRQ was in flight;
        # in that case the budget was reloaded and no stall happens.
        if self._spent < self._allowance():
            return
        # Reclaim: draw spare budget from the pool before stalling.
        if self.config.reclaim and self.pool is not None:
            granted = self.pool.take(self.config.reclaim_chunk)
            if granted:
                self._extra += granted
                self.reclaimed_bytes += granted
                return
        self._throttled = True

    def _period_tick(self) -> None:
        self._period_start = self.sim.now
        self._last_usage = self._spent
        self._spent = 0
        self._extra = 0
        was_throttled = self._throttled
        self._throttled = False
        if self.config.reclaim and self.pool is not None:
            # Predictive donation: last period's usage forecasts this
            # period's need; the remainder goes to the pool.
            self.pool.start_period(self.sim.now)
            self.pool.donate(max(0, self._budget - self._last_usage))
        if self._pending_budget is not None:
            self._budget = self._pending_budget
            self._pending_budget = None
            self.reconfig_count += 1
        self.tick_count += 1
        self.overhead_cycles += self.config.tick_overhead
        self.sim.schedule(
            self.config.period_cycles, self._period_tick,
            priority=Phase.REGULATOR, daemon=True,
        )
        if was_throttled:
            self._release()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    # repro: hot
    def may_issue(self, txn: Transaction, now: int) -> bool:
        # Software cannot make per-handshake decisions; it only stalls
        # the actor after the overflow interrupt has run.
        return not self._throttled

    # repro: hot -- once per accepted transaction
    def charge(self, txn: Transaction, now: int) -> None:
        # Accounting happens via the PMU at data transfer time; only
        # the monitor totals are updated here.
        super().charge(txn, now)

    # repro: hot
    def next_opportunity(self, txn: Transaction, now: int) -> int:
        return self._period_start + self.config.period_cycles

    def denied_until(self, txn: Transaction, now: int) -> int:
        # Only the period tick clears the throttle (and it releases).
        return self.next_opportunity(txn, now)

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------
    def set_budget_bytes(self, budget_bytes: int, now: int) -> int:
        """Stage a new budget; software applies it at the next tick."""
        if budget_bytes < 1:
            raise RegulationError(f"budget_bytes must be >= 1, got {budget_bytes}")
        self._pending_budget = budget_bytes
        return self._period_start + self.config.period_cycles

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def budget_bytes(self) -> int:
        return self._budget

    @property
    def period_cycles(self) -> int:
        return self.config.period_cycles

    @property
    def window_resets(self) -> int:
        """Budget periods started so far (one tick each)."""
        return self.tick_count

    @property
    def throttled(self) -> bool:
        return self._throttled
