"""The tightly-coupled hardware monitor + regulator IP (the paper's
contribution).

The IP sits inline on a master port's address channels.  Its RTL-level
behaviour, reproduced cycle-for-cycle here:

* a byte-granular **token bucket**: a credit counter replenished by
  ``budget_bytes`` every ``window_cycles`` (a window counter plus a
  saturating adder in hardware);
* **burst-aware charging**: the full burst size is charged when the
  address handshake is accepted, so an admitted burst can never
  overdraw the budget mid-flight;
* **combinational admission**: the stall decision uses the credit
  counter of *this* cycle -- monitoring and regulation are the same
  IP, hence "tightly coupled".  The ``feedback_delay`` knob widens
  the monitor-to-regulator loop to model a loosely-coupled design
  (system-level monitor polled over the fabric); experiment E8 shows
  what that costs;
* **credit carry-over** (optional): capacity of ``(carryover_windows
  + 1) * budget`` lets an idle actor accumulate a bounded burst
  allowance.  ``carryover_windows=0`` reproduces a plain tumbling
  window (credit resets every window), the cheapest RTL variant;
* **fast reconfiguration**: budgets are memory-mapped registers; a
  write takes effect ``reconfig_latency`` bus cycles later (vs a full
  period for the software baseline).

Forward progress: a burst larger than the bucket capacity can never
fit; with ``allow_oversize`` (default) such a burst is admitted when
the bucket is full, and the credit counter goes *negative* (a signed
counter in the RTL): subsequent windows first repay the debt, so the
long-run rate stays at the configured budget while the master is
never wedged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.errors import RegulationError
from repro.sim.kernel import Phase, Simulator
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.monitor.window import WindowedBandwidthMonitor
from repro.regulation.base import BandwidthRegulator
from repro.regulation.token_bucket import TokenBucket


@dataclass(frozen=True)
class TightlyCoupledConfig:
    """Static configuration of the tightly-coupled IP.

    Attributes:
        window_cycles: Replenish window in cycles (the paper's
            "fine-grained" axis; typical values 64..4096).
        budget_bytes: Bytes of credit granted per window.
        carryover_windows: Extra windows of credit the bucket can
            hold (0 = tumbling window).
        burst_aware: Charge the full burst at the address handshake
            (True, the IP's design) or admit on any positive credit
            and charge per burst anyway (False; allows bounded
            overdraw -- kept for the ablation in E3).
        feedback_delay: Cycles before a charge becomes visible to the
            admission logic (0 = tightly coupled; >0 models a
            loosely-coupled system monitor, experiment E8).
        reconfig_latency: Bus cycles for a budget register write to
            take effect.
        allow_oversize: Admit bursts larger than capacity when the
            bucket is full (forward-progress guarantee).
        window_phase: Cycle offset of the window boundaries.  In
            hardware each IP instance's window counter starts when its
            enable register is written, so instances are naturally
            staggered; phase-aligned windows make all regulated
            masters release their budgets simultaneously, clumping
            traffic.  The platform layer staggers phases by default.
        regulate_reads / regulate_writes: Which AXI channels the IP
            gates.  The RTL instantiates separate gating on AR and
            AW, individually enable-able: e.g. a camera DMA whose
            writes are latency-tolerant but must not be starved can
            be regulated on reads only.  Unregulated-direction
            traffic passes freely and is not charged.
        work_conserving: CMRI-style controlled injection (the
            authors' prior line of work): when the regulated master is
            out of credit *and* the memory system is idle, admit the
            burst anyway without charging it.  Injection consumes
            only bandwidth nobody was using, so the long-run
            guarantee is preserved while utilization rises; the cost
            is a bounded extra delay (at most one in-flight injected
            burst) for a critical request that arrives right after an
            injection.  Requires an idle probe
            (:meth:`TightlyCoupledRegulator.attach_idle_probe`),
            wired automatically by the platform layer.
    """

    window_cycles: int = 1024
    budget_bytes: int = 4096
    carryover_windows: int = 0
    burst_aware: bool = True
    feedback_delay: int = 0
    reconfig_latency: int = 4
    allow_oversize: bool = True
    window_phase: int = 0
    work_conserving: bool = False
    regulate_reads: bool = True
    regulate_writes: bool = True

    def __post_init__(self) -> None:
        if self.window_phase < 0:
            raise RegulationError("window_phase must be >= 0")
        if not (self.regulate_reads or self.regulate_writes):
            raise RegulationError(
                "at least one of regulate_reads/regulate_writes must be set"
            )
        if self.window_cycles < 1:
            raise RegulationError(f"window_cycles must be >= 1, got {self.window_cycles}")
        if self.budget_bytes < 1:
            raise RegulationError(f"budget_bytes must be >= 1, got {self.budget_bytes}")
        if self.carryover_windows < 0:
            raise RegulationError("carryover_windows must be >= 0")
        if self.feedback_delay < 0:
            raise RegulationError("feedback_delay must be >= 0")
        if self.reconfig_latency < 0:
            raise RegulationError("reconfig_latency must be >= 0")

    @property
    def capacity_bytes(self) -> int:
        """Maximum credit the bucket can hold."""
        return (self.carryover_windows + 1) * self.budget_bytes

    def bandwidth_bytes_per_cycle(self) -> float:
        """The long-run rate this configuration enforces."""
        return self.budget_bytes / self.window_cycles


class TightlyCoupledRegulator(BandwidthRegulator):
    """Inline fine-grained bandwidth regulator (see module docstring)."""

    def __init__(self, sim: Simulator, config: TightlyCoupledConfig) -> None:
        super().__init__()
        self.sim = sim
        self.config = config
        # Window boundaries fall at (window_phase mod window) + k*window.
        # Anchoring the bucket one window before cycle 0 keeps the
        # phase while never rejecting early charges as "backwards".
        anchor = (config.window_phase % config.window_cycles) - config.window_cycles
        self._bucket = TokenBucket(
            capacity=config.capacity_bytes,
            refill_amount=config.budget_bytes,
            refill_period=config.window_cycles,
            start=anchor,
        )
        #: Charges not yet visible to admission (feedback_delay > 0):
        #: (visible_at_cycle, nbytes) in increasing time order.
        self._unseen: Deque[Tuple[int, int]] = deque()
        self.monitor: Optional[WindowedBandwidthMonitor] = None
        self._budget_bytes = config.budget_bytes
        self.reconfig_count = 0
        #: Work-conserving mode: callable returning True when the
        #: memory system is idle (no queued requests).
        self._idle_probe: Optional[object] = None
        #: Marks the head transaction admitted via injection, so its
        #: charge is skipped (injection uses only spare bandwidth).
        self._inject_txn_id: Optional[int] = None
        self.injected_bytes = 0
        self.injected_transactions = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _on_bind(self, port: MasterPort) -> None:
        # The IP's monitor half: per-window byte counts of the very
        # traffic it regulates.
        self.monitor = WindowedBandwidthMonitor(port, self.config.window_cycles)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _visible_tokens(self, now: int) -> int:
        """Tokens as seen by the admission logic at ``now``.

        With a feedback delay, recent charges have not reached the
        decision logic yet, so it *over*-estimates available credit --
        the root cause of loosely-coupled overshoot.
        """
        tokens = self._bucket.tokens_at(now)
        if not self.config.feedback_delay:
            return tokens
        while self._unseen and self._unseen[0][0] <= now:
            self._unseen.popleft()
        pending = sum(nbytes for _t, nbytes in self._unseen)
        return min(self._bucket.capacity, tokens + pending)

    def _channel_regulated(self, txn: Transaction) -> bool:
        if txn.is_write:
            return self.config.regulate_writes
        return self.config.regulate_reads

    def may_issue(self, txn: Transaction, now: int) -> bool:
        if not self._channel_regulated(txn):
            return True
        # Re-evaluations of the same head (arbitration lost, retry)
        # must re-earn the injection mark, or a later credit-based
        # admission would wrongly skip its charge.
        if self._inject_txn_id == txn.txn_id:
            self._inject_txn_id = None
        if self._admit_by_credit(txn, now):
            return True
        # CMRI-style injection: out of credit, but nobody is using the
        # memory system -> let the burst through uncharged.
        if (
            self.config.work_conserving
            and self._idle_probe is not None
            and self._idle_probe()
        ):
            self._inject_txn_id = txn.txn_id
            return True
        return False

    def _admit_by_credit(self, txn: Transaction, now: int) -> bool:
        tokens = self._visible_tokens(now)
        if self.config.burst_aware:
            if txn.nbytes <= tokens:
                return True
            if (
                self.config.allow_oversize
                and txn.nbytes > self._bucket.capacity
                and tokens >= self._bucket.capacity
            ):
                return True
            return False
        # Non-burst-aware: any positive credit admits the whole burst.
        return tokens > 0

    def charge(self, txn: Transaction, now: int) -> None:
        super().charge(txn, now)
        if not self._channel_regulated(txn):
            return  # free channel: observed by the monitor only
        if self._inject_txn_id == txn.txn_id:
            # Injected burst: spare bandwidth only, no credit spent.
            self._inject_txn_id = None
            self.injected_bytes += txn.nbytes
            self.injected_transactions += 1
            return
        # Signed credit counter: oversize or overdrawn bursts leave a
        # debt that future window refills repay first.
        self._bucket.force_consume(txn.nbytes, now, allow_debt=True)
        if self.config.feedback_delay:
            self._unseen.append((now + self.config.feedback_delay, txn.nbytes))

    #: Retry cadence while hunting for idle-injection opportunities.
    INJECT_POLL_CYCLES = 32

    def next_opportunity(self, txn: Transaction, now: int) -> int:
        need = min(
            txn.nbytes if self.config.burst_aware else 1, self._bucket.capacity
        )
        by_credit = self._bucket.next_available(need, now)
        if self.config.work_conserving and self._idle_probe is not None:
            # Poll for memory-idle windows between credit refills (in
            # hardware this is free: the stall comparator also sees
            # the controller's queue-empty signal every cycle).
            return min(by_credit, now + self.INJECT_POLL_CYCLES)
        return by_credit

    def denied_until(self, txn: Transaction, now: int) -> int:
        """Credit only shrinks between refills, so a denial holds
        until the credit the burst needs has been refilled.

        With ``feedback_delay`` the visible credit also shrinks as
        unseen charges land, so the guarantee is the next refill
        boundary.  Work-conserving injection consults the live
        memory-idle signal, which can flip any cycle: no guarantee.
        """
        cfg = self.config
        if cfg.work_conserving:
            return now
        if cfg.feedback_delay:
            return self._bucket.horizon(now)
        need = min(txn.nbytes if cfg.burst_aware else 1, self._bucket.capacity)
        return self._bucket.next_available(need, now)

    # ------------------------------------------------------------------
    # work-conserving wiring
    # ------------------------------------------------------------------
    def attach_idle_probe(self, probe) -> None:
        """Connect the idle signal used by work-conserving injection.

        Args:
            probe: Zero-argument callable returning truthy when the
                memory system has no queued work (in hardware: a
                side-band "queue empty" signal from the controller).
        """
        self._idle_probe = probe

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------
    def set_budget_bytes(self, budget_bytes: int, now: int) -> int:
        """Write the budget register; effective after the bus write."""
        if budget_bytes < 1:
            raise RegulationError(f"budget_bytes must be >= 1, got {budget_bytes}")
        effective_at = now + self.config.reconfig_latency

        def apply() -> None:
            self._budget_bytes = budget_bytes
            capacity = (self.config.carryover_windows + 1) * budget_bytes
            self._bucket.reconfigure(
                self.sim.now, capacity=capacity, refill_amount=budget_bytes
            )
            self.reconfig_count += 1
            self._release()

        self.sim.schedule_at(effective_at, apply, priority=Phase.CONTROL)
        return effective_at

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def budget_bytes(self) -> int:
        """The currently effective per-window budget."""
        return self._budget_bytes

    @property
    def window_cycles(self) -> int:
        return self.config.window_cycles

    @property
    def window_resets(self) -> int:
        """Window boundaries the credit counter has applied so far.

        Boundaries are applied lazily, when the bucket is next
        consulted, so a mid-run read may trail ``now`` by the windows
        since the last admission check.
        """
        return self._bucket.refills

    def tokens_now(self) -> int:
        """Credit available this cycle (true, not delayed, view)."""
        return self._bucket.tokens_at(self.sim.now)

    def peek_tokens(self) -> int:
        """Side-effect-free view of this cycle's credit.

        Used by the probe plane: unlike :meth:`tokens_now` it never
        advances the bucket's refill bookkeeping, so sampling it
        cannot perturb any observable counter.
        """
        return self._bucket.peek_tokens(self.sim.now)
