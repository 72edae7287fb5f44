"""Master ports: the attachment point of masters *and* regulators.

A :class:`MasterPort` sits between one traffic-generating master and
the interconnect.  It owns the request queue awaiting address-channel
acceptance, enforces the AXI outstanding-transaction limit, and hosts
the (optional) bandwidth regulator *inline* -- exactly where the
reproduced paper places its tightly-coupled monitoring/regulation IP.

Because the regulator is consulted on the very handshake it gates and
is charged on the very cycle a burst is accepted, the feedback loop
between monitoring and regulation is cycle-accurate.  The contrast
with loosely-coupled (sampled) monitoring is explored by experiment
E8 (:mod:`repro.regulation` supports a sampling delay for that).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigError, ProtocolError
from repro.sim.kernel import Phase, Simulator
from repro.sim.stats import StatSet
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.axi.txn import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.regulation.base import BandwidthRegulator


@dataclass(frozen=True)
class PortConfig:
    """Static configuration of one master port.

    Attributes:
        name: Unique port / master name.
        max_outstanding: Maximum accepted-but-uncompleted transactions.
        qos: Default AXI QoS value stamped on transactions that carry
            none (0..15).
        split_channels: Model the independent AXI read (AR) and write
            (AW) address channels as separate queues.  With a single
            combined queue (the default, adequate for single-direction
            masters), a stalled write at the head blocks queued reads
            behind it; split channels remove that head-of-line
            coupling, as real AXI masters do.
        throttle_log_limit: Most recent closed throttle intervals the
            port retains (a ring buffer -- long served runs must not
            grow memory per denial).  ``None`` keeps every interval;
            overwritten intervals are counted in
            :attr:`MasterPort.throttle_dropped` and the cumulative
            throttled-cycle total stays exact either way.
    """

    name: str
    max_outstanding: int = 8
    qos: int = 0
    split_channels: bool = False
    throttle_log_limit: Optional[int] = 4096

    def __post_init__(self) -> None:
        if self.max_outstanding < 1:
            raise ConfigError(
                f"port {self.name!r}: max_outstanding must be >= 1, "
                f"got {self.max_outstanding}"
            )
        if not 0 <= self.qos <= 15:
            raise ConfigError(f"port {self.name!r}: qos {self.qos} outside 0..15")
        if self.throttle_log_limit is not None and self.throttle_log_limit < 1:
            raise ConfigError(
                f"port {self.name!r}: throttle_log_limit must be >= 1 "
                f"or None, got {self.throttle_log_limit}"
            )


class MasterPort:
    """One master's entry point into the interconnect.

    Args:
        sim: The simulation kernel.
        config: Static port parameters.
        regulator: Optional inline bandwidth regulator.  ``None``
            means the port is unregulated (passthrough).
        trace: Optional trace recorder receiving completed txns.
    """

    def __init__(
        self,
        sim: Simulator,
        config: PortConfig,
        regulator: Optional["BandwidthRegulator"] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.name = config.name
        self.regulator = regulator
        self.trace = trace
        self.stats = StatSet(config.name)
        # One combined queue, or one per address channel (AR/AW).
        self._split = config.split_channels
        if self._split:
            self._queues = {False: deque(), True: deque()}
        else:
            self._queues = {False: deque()}
        #: Transactions waiting in all queues (the interconnect reads
        #: it, with ``_outstanding``/``_max_outstanding``, to skip
        #: ports that cannot offer a head without calling into them).
        self._queued = 0
        self._outstanding = 0
        self._max_outstanding = config.max_outstanding
        self._interconnect = None  # set by Interconnect.attach_port
        self._retry_scheduled_at: Optional[int] = None
        # Denied heads park, per queue key (False = combined/AR,
        # True = AW): before ``_parked_until[key]`` the regulator has
        # guaranteed its head stays denied (``denied_until``), so the
        # port skips re-asking it.  ``_parked_retry[key]`` is the
        # retry cycle the denial asked for.  Cleared by
        # regulator_released().
        self._parked_until = [0, 0]
        self._parked_retry = [0, 0]
        #: Called with the completed transaction (set by the master).
        self.on_response: Optional[Callable[[Transaction], None]] = None
        #: Observers of data-beat traffic: ``fn(nbytes, now)``.
        self.beat_observers: List[Callable[[int, int], None]] = []
        #: Observers of completed transactions: ``fn(txn)``; called
        #: after timestamps are final (latency monitors hook here).
        self.completion_observers: List[Callable[[Transaction], None]] = []
        # Pre-resolved collectors: submit/accept/complete run once per
        # transaction, so the StatSet name lookups are hoisted out of
        # the hot path.
        self._stat_submitted = self.stats.counter("submitted")
        self._stat_accepted = self.stats.counter("accepted")
        self._stat_completed = self.stats.counter("completed")
        self._stat_bytes = self.stats.counter("bytes")
        self._stat_denials = self.stats.counter("regulator_denials")
        self._samp_queueing = self.stats.sampler("queueing_delay")
        self._samp_latency = self.stats.sampler("latency")
        # Closed throttle intervals (start, end): spans during which
        # the head-of-line transaction was held back by the regulator.
        # Ring-bounded by config.throttle_log_limit; read through
        # throttle_intervals() / the throttle_log property.
        self._throttle_log: Deque[Tuple[int, int]] = deque(
            maxlen=config.throttle_log_limit
        )
        #: Closed intervals overwritten because the ring was full.
        self.throttle_dropped = 0
        #: Cumulative cycles spent in *closed* throttle intervals
        #: (exact even after the ring drops old intervals).
        self.throttle_cycles = 0
        self._throttle_since: Optional[int] = None
        #: Latency of the most recently completed transaction (0
        #: before the first completion); a live-probe register.
        self.last_latency = 0
        if regulator is not None:
            regulator.bind_port(self)
            sim.add_finalizer(self._close_throttle)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _set_interconnect(self, interconnect) -> None:
        if self._interconnect is not None:
            raise ProtocolError(f"port {self.name!r} attached twice")
        self._interconnect = interconnect

    # ------------------------------------------------------------------
    # master-facing API
    # ------------------------------------------------------------------
    # repro: hot -- once per transaction
    def submit(self, txn: Transaction) -> None:
        """Present a new transaction's address phase to the port."""
        if self._interconnect is None:
            raise ProtocolError(f"port {self.name!r} not attached to interconnect")
        if txn.qos == 0 and self.config.qos != 0:
            txn.qos = self.config.qos
        txn.mark_issued(self.sim.now)
        self._queue_for(txn).append(txn)
        self._queued += 1
        self._stat_submitted.add()
        self._interconnect.kick()

    def _queue_for(self, txn: Transaction) -> Deque[Transaction]:
        if self._split:
            return self._queues[txn.is_write]
        return self._queues[False]

    @property
    def queue_depth(self) -> int:
        """Transactions waiting for address acceptance."""
        return self._queued

    @property
    def outstanding(self) -> int:
        """Accepted-but-uncompleted transactions."""
        return self._outstanding

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return self._queued == 0 and self._outstanding == 0

    # ------------------------------------------------------------------
    # interconnect-facing API
    # ------------------------------------------------------------------
    # repro: hot -- once per arbitration pass
    def head(self, want_write: Optional[bool] = None) -> Optional[Transaction]:
        """Return an eligible head-of-line transaction, or None.

        Args:
            want_write: Restrict to the write (True) or read (False)
                address channel; None accepts either.  With
                ``split_channels`` each direction has its own queue,
                otherwise only the single queue's head can match.

        A head is eligible when the outstanding limit has room and the
        regulator (if any) admits it *now*.  When the regulator is the
        blocker, a retry kick is scheduled for the cycle the regulator
        says credit becomes available, so the interconnect re-runs
        arbitration without polling, and the queue parks until
        :meth:`~repro.regulation.base.BandwidthRegulator.denied_until`
        (see :meth:`_admit`).
        """
        if self._outstanding >= self._max_outstanding:
            return None
        # Queue keys: False is the combined queue or AR, True is AW.
        if self._split:
            keys = (False, True) if want_write is None else (want_write,)
        else:
            keys = (False,)
        for key in keys:
            queue = self._queues[key]
            if not queue:
                continue
            txn = queue[0]
            # Only the combined queue can hold the other direction.
            if want_write is not None and txn.is_write != want_write:
                continue
            if self.regulator is None or self._admit(key, txn):
                return txn
        return None

    # repro: hot
    def _admit(self, key: bool, txn: Transaction) -> bool:
        """Ask the regulator about the head ``txn`` of queue ``key``.

        A denial starts a denial episode: it is counted once, a retry
        kick is scheduled at ``next_opportunity``, and the queue parks
        until ``denied_until``.  While parked the regulator is not
        asked, because it guaranteed the answer stays False.  One case
        still needs work, so that kicks stay exactly those of asking
        on every pass: when no retry is pending in
        ``(now, parked retry]`` (a retry of the other queue fired), the
        retry is armed again as a fresh denial would arm it.
        """
        regulator = self.regulator
        now = self.sim.now
        if now < self._parked_until[key]:
            pending = self._retry_scheduled_at
            if pending is None or pending <= now or pending > self._parked_retry[key]:
                self._schedule_retry(regulator.next_opportunity(txn, now))
            return False
        if regulator.may_issue(txn, now):
            return True
        self._stat_denials.add()
        if self._throttle_since is None:
            self._throttle_since = now
        retry = regulator.next_opportunity(txn, now)
        self._parked_until[key] = regulator.denied_until(txn, now)
        self._parked_retry[key] = retry
        self._schedule_retry(retry)
        return False

    # repro: hot
    def accept_head(self, want_write: Optional[bool] = None) -> Transaction:
        """The interconnect accepted this port's head transaction."""
        if self._split and want_write is None:
            raise ProtocolError(
                f"port {self.name!r}: split channels need a direction"
            )
        key = want_write if self._split else False
        queue = self._queues[key]
        if not queue:
            raise ProtocolError(f"port {self.name!r}: accept with empty queue")
        txn = queue.popleft()
        self._queued -= 1
        txn.mark_accepted(self.sim.now)
        self._outstanding += 1
        if self.regulator is not None:
            self.regulator.charge(txn, self.sim.now)
            if self._throttle_since is not None:
                self._append_throttle(self._throttle_since, self.sim.now)
                self._throttle_since = None
        self._stat_accepted.add()
        self._samp_queueing.record(txn.accepted - txn.issued)
        return txn

    # repro: hot
    def complete(self, txn: Transaction) -> None:
        """A response for ``txn`` arrived back at the master."""
        if self._outstanding <= 0:
            raise ProtocolError(f"port {self.name!r}: completion underflow")
        self._outstanding -= 1
        now = self.sim.now
        txn.mark_completed(now)
        self._stat_completed.add()
        self._stat_bytes.add(txn.nbytes)
        latency = txn.latency
        self.last_latency = latency
        self._samp_latency.record(latency)
        # Flattened single-observer fast path: almost every port has
        # exactly one beat observer (its bandwidth monitor), and this
        # runs once per completed transaction.
        observers = self.beat_observers
        if observers:
            if len(observers) == 1:
                observers[0](txn.nbytes, now)
            else:
                for observer in observers:
                    observer(txn.nbytes, now)
        observers = self.completion_observers
        if observers:
            if len(observers) == 1:
                observers[0](txn)
            else:
                for observer in observers:
                    observer(txn)
        if self.trace is not None:
            self.trace.record(
                TraceRecord(
                    master=self.name,
                    txn_id=txn.txn_id,
                    is_write=txn.is_write,
                    addr=txn.addr,
                    nbytes=txn.nbytes,
                    created=txn.created,
                    issued=txn.issued,
                    accepted=txn.accepted,
                    completed=txn.completed,
                )
            )
        if self.on_response is not None:
            self.on_response(txn)
        # A freed outstanding slot may unblock a head-of-line txn.
        if self._queued:
            self._interconnect.kick()

    # ------------------------------------------------------------------
    # regulator support
    # ------------------------------------------------------------------
    def _append_throttle(self, start: int, end: int) -> None:
        """Record one closed throttle interval into the bounded ring."""
        log = self._throttle_log
        if log.maxlen is not None and len(log) == log.maxlen:
            self.throttle_dropped += 1
        log.append((start, end))
        self.throttle_cycles += end - start

    def throttle_intervals(self) -> List[Tuple[int, int]]:
        """Retained closed throttle intervals, oldest first.

        The accessor consumers (Perfetto export, probes) should use;
        at most ``config.throttle_log_limit`` intervals are retained
        (:attr:`throttle_dropped` counts overwritten ones).
        """
        return list(self._throttle_log)

    @property
    def throttle_log(self) -> "Deque[Tuple[int, int]]":
        """The live interval ring (read-only compatibility view)."""
        return self._throttle_log

    def throttle_cycles_at(self, now: int) -> int:
        """Total throttled cycles up to ``now``, open interval included."""
        total = self.throttle_cycles
        since = self._throttle_since
        if since is not None and now > since:
            total += now - since
        return total

    def _close_throttle(self, now: int) -> None:
        """Run finalizer: close a throttle interval left open at the
        end of a run (denied and never re-accepted)."""
        if self._throttle_since is not None and now > self._throttle_since:
            self._append_throttle(self._throttle_since, now)
            self._throttle_since = None

    def regulator_released(self) -> None:
        """Callback for regulators: credit became available.

        Ends every denial episode: both queues unpark, so the next
        pass asks the regulator again.
        """
        self._parked_until[0] = self._parked_until[1] = 0
        if self._queued:
            self._interconnect.kick()

    def _schedule_retry(self, at_cycle: int) -> None:
        """Arrange an interconnect kick at ``at_cycle`` (deduplicated)."""
        now = self.sim.now
        at_cycle = max(at_cycle, now + 1)
        if (
            self._retry_scheduled_at is not None
            and self._retry_scheduled_at <= at_cycle
            and self._retry_scheduled_at > now
        ):
            return
        self._retry_scheduled_at = at_cycle
        self.sim.schedule_at(at_cycle, self._retry, priority=Phase.MASTER)

    def _retry(self) -> None:
        """The retry kick armed by :meth:`_schedule_retry`."""
        self._retry_scheduled_at = None
        if self._queued:
            self._interconnect.kick()
