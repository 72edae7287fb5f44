"""Steady-state fast-forward: analytic macro-stepping over regular
traffic regions.

The event-accurate kernel pays one arrival event, one arbitration
pass and one regulator denial per open-loop arrival while a stream is
throttled -- even though nothing *observable* changes until the
regulator's next replenish boundary.  On regulation-bound steady
streaming (experiment E2/E3-style saturation points) those blocked
cycles dominate the run.

The :class:`FastForwardEngine` detects such regions and advances the
clock many cycles at once.  A region is entered only when the entire
pending-event population is *analytically advanceable*:

* every foreground event is either a tracked open-loop arrival or a
  port retry kick (population counted exactly, so any in-flight
  memory work, CPU activity or control event declines the region);
* every port has zero outstanding transactions and every non-empty
  port is regulator-blocked (denied head, retry scheduled, throttle
  interval open);
* the DRAM controller is quiescent (empty queues, no scheduler event,
  banks settled -- :meth:`repro.dram.controller.DramController.ff_quiescent`);
* every blocking regulator can bound its own behaviour analytically
  via :meth:`repro.regulation.base.BandwidthRegulator.ff_horizon`
  (non-analytic policies return ``None`` and opt out).

The *safe horizon* of a region is the minimum of the regulator
horizons (token-refill crossing, window-bin edge, MemGuard tick, TDMA
slot start), the earliest remaining queued event (which covers retry
kicks and every daemon: DRAM refresh, monitor sample ticks, probe
sampler ticks, scheduled reconfigurations), and the run's ``until``
bound.  Within the horizon the engine *walks* each stream's
precomputed arrival vectors, creating and enqueuing the transactions
the per-event path would have created (same RNG draw order, same
block refills, same queue contents) and settling every counter the
skipped events would have touched: per-pass interconnect telemetry,
per-pass regulator denials, per-arrival submit/issue statistics.  The
regulators are then settled with ``ff_advance_bulk`` and the
remaining arrivals are rescheduled as ordinary events.

Equivalence argument (the detector enforces every premise):

* With all ports blocked and outstanding-free, each distinct arrival
  cycle triggers exactly one arbitration pass (the interconnect kick
  is deduplicated), which denies each non-empty port's head exactly
  once and re-arms its retry via a deduplicated no-op (the pending
  retry kick fires at or before the next opportunity, which is
  non-decreasing while no credit is granted).
* ``ff_horizon`` is a contract that a denied head *stays* denied up
  to the returned cycle, so no pass in the region can accept.
* Regulator clock state is path-independent (e.g. the token bucket's
  lazy refill composes), so one ``ff_advance_bulk`` at the region end
  reproduces the per-pass advances.
* Same-cycle ordering between a retry kick and an arrival is
  result-invariant (both only kick the deduplicated arbiter), so the
  fresh sequence numbers of rescheduled arrivals cannot change any
  outcome.

Result tables are therefore byte-identical to the event-accurate
kernel (enforced by ``tests/sim/test_fastforward.py`` and the CI
differential gate); only kernel telemetry -- the events-dispatched count --
legitimately differs, and the engine reports its own
activity through :meth:`Simulator.kernel_stats` (``ff_regions``,
``ff_cycles_skipped``, ``ff_arrivals``).

The engine is off by default and enabled with ``REPRO_FASTFORWARD=1``
(see :func:`repro.sim.kernel.resolve_fastforward`); the platform
builder attaches it automatically when the config contains open-loop
masters.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.sim.kernel import Phase, Simulator
from repro.axi.txn import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.axi.interconnect import Interconnect
    from repro.axi.port import MasterPort
    from repro.dram.controller import DramController
    from repro.traffic.arrivals import OpenLoopMaster

#: Consecutive declines after which the engine stops probing for a
#: while.  Declines come in long runs (a CPU phase, a drain burst):
#: probing every cycle through one would cost a few percent of the
#: event-accurate run for nothing.
DECLINE_STREAK = 4

#: Probe calls skipped after the first decline streak.  Small against
#: region length (hundreds to thousands of cycles), so re-engagement
#: after a refill burst is delayed imperceptibly; deterministic, so
#: runs stay reproducible.
DECLINE_BACKOFF = 16

#: Backoff ceiling.  Consecutive streak hits double the skip span up
#: to this bound, so a run the engine never helps (irregular traffic,
#: a long CPU phase) converges to a handful of full probes per
#: thousand dispatch iterations; any successful region resets the
#: span to DECLINE_BACKOFF.
DECLINE_BACKOFF_MAX = 256


class FastForwardEngine:
    """Macro-steps the clock across steady blocked-stream regions.

    Args:
        sim: The simulation kernel (the engine attaches itself).
        interconnect: The fabric switch (its port list is the full
            port population the detector audits).
        dram: The memory controller (quiescence gate).
        streams: The open-loop masters whose arrivals may be walked
            analytically; tracking of their pending arrival event is
            enabled here.
    """

    def __init__(
        self,
        sim: Simulator,
        interconnect: "Interconnect",
        dram: "DramController",
        streams: List["OpenLoopMaster"],
    ) -> None:
        self.sim = sim
        self.interconnect = interconnect
        self.dram = dram
        self.streams = list(streams)
        for stream in self.streams:
            stream._ff_track = True
        #: A region needs at least one pending stream, and a pending
        #: stream's (necessarily non-empty) port must be regulator-
        #: blocked -- so with no regulated stream port the engine can
        #: never engage, and the per-cycle probe reduces to one check.
        self._capable = any(
            stream.port.regulator is not None for stream in self.streams
        )
        #: Regions successfully macro-stepped.
        self.regions = 0
        #: Cycles the clock advanced inside macro-steps.
        self.cycles_skipped = 0
        #: Arrivals emitted analytically (events never dispatched).
        self.arrivals_emitted = 0
        #: Decline-backoff state (see DECLINE_STREAK/DECLINE_BACKOFF).
        self._streak = 0
        self._skip = 0
        self._backoff = DECLINE_BACKOFF
        sim.attach_fastforward(self)

    # ------------------------------------------------------------------
    # detection + macro-step
    # ------------------------------------------------------------------
    # repro: hot -- consulted once per dispatch-loop iteration
    def attempt(self, next_time: int, until: Optional[int]) -> Optional[int]:
        """Try to macro-step from ``next_time``; None = declined.

        Called by the dispatch loop between cycles, with ``next_time``
        the queue's peeked next event time.  On success the clock has
        been advanced and the return value is the region's idle-cycle
        count (skipped span minus cycles that held arrivals).

        This wrapper keeps the per-iteration cost bounded on runs the
        engine cannot help: configs with no regulated stream port
        decline in one check, and a streak of full-detector declines
        (irregular traffic, a CPU phase, a drain burst) backs probing
        off for a fixed number of calls.  Skipping a probe is always
        safe -- the engine is opportunistic -- and the schedule of
        probes is deterministic, so results stay reproducible.
        """
        if not self._capable:
            return None
        if next_time <= self.sim._now:
            # Mid-cycle re-peek (a run resumed inside a cycle): never
            # enter, and never count against the decline streak.
            return None
        if self._skip:
            self._skip -= 1
            return None
        result = self._attempt(next_time, until)
        if result is None:
            self._streak += 1
            if self._streak >= DECLINE_STREAK:
                self._streak = 0
                self._skip = self._backoff
                if self._backoff < DECLINE_BACKOFF_MAX:
                    self._backoff *= 2
        else:
            self._streak = 0
            self._backoff = DECLINE_BACKOFF
        return result

    def _attempt(self, next_time: int, until: Optional[int]) -> Optional[int]:
        """The full detector + macro-step; None = declined.

        All checks with side effects run only after every pure
        structural check has passed, and the side effects (regulator
        clock advances) exactly pre-play the arbitration pass the
        per-event path is already committed to running at
        ``next_time``.
        """
        sim = self.sim
        ic = self.interconnect
        if ic._arb_scheduled_at is not None or ic.config.split_addr_channels:
            return None
        if ic._next_free[None] > next_time:
            return None

        # The tracked streams' pending arrivals; the region starts at
        # the earliest of them, which must be the very next event.
        streams = self.streams
        pend: List[Tuple[int, int]] = []
        t_first = None
        for index, stream in enumerate(streams):
            event = stream._pending_arrival
            if event is None or event.cancelled:
                continue
            pend.append((event.time, index))
            if t_first is None or event.time < t_first:
                t_first = event.time
        if t_first != next_time:
            return None

        # Full port-population audit: nothing in flight anywhere, and
        # every non-empty port is regulator-blocked with a live retry.
        expected = len(pend)
        blocked: List["MasterPort"] = []
        for port in ic.ports:
            if port._outstanding:
                return None
            expected += port._retry_events_live
            if not port.queue_depth:
                continue
            if port.config.split_channels:
                return None
            if (
                port.regulator is None
                or port._throttle_since is None
                or port._retry_scheduled_at is None
                or port._retry_scheduled_at <= next_time
            ):
                return None
            blocked.append(port)
        # An arrival into an *empty* port could be accepted at the
        # pass; only already-blocked ports may receive walked arrivals.
        for _time, index in pend:
            if not streams[index].port.queue_depth:
                return None
        # Exact population match: pending arrivals + retry kicks must
        # be the *entire* foreground; anything else declines.
        queue = sim._queue
        if queue.live_foreground != expected:
            return None
        if not self.dram.ff_quiescent(next_time):
            return None

        # Regulator checks (these may advance lazy regulator clocks to
        # next_time; the pass at next_time performs the same advances,
        # and they are idempotent, so a late decline is still exact).
        reg_bound = None
        for port in blocked:
            regulator = port.regulator
            horizon = regulator.ff_horizon(next_time)
            if horizon is None or horizon <= next_time:
                return None
            if reg_bound is None or horizon < reg_bound:
                reg_bound = horizon
            head = port._queues[False][0]
            if regulator.may_issue(head, next_time):
                return None
            opportunity = regulator.next_opportunity(head, next_time)
            if opportunity < next_time + 1:
                opportunity = next_time + 1
            if port._retry_scheduled_at > opportunity:
                # The pass would re-arm a second, earlier retry; the
                # region's event population would grow mid-flight.
                return None

        # Commit point: cancel the pending arrivals so the queue peek
        # exposes the earliest *other* event (retry kicks, daemons --
        # refresh, monitor/probe ticks, reconfigurations), which
        # together with the regulator horizons and the run bound
        # defines the safe horizon.
        for _time, index in pend:
            stream = streams[index]
            stream._pending_arrival.cancel()
            stream._pending_arrival = None
        bound = reg_bound
        peek = queue.peek_time()
        if peek is not None and peek < bound:
            bound = peek
        if until is not None and until + 1 < bound:
            bound = until + 1
        if bound <= next_time:
            # Boundary immediately ahead: restore and dispatch
            # event-accurately.
            pend.sort()
            for time, index in pend:
                stream = streams[index]
                stream._pending_arrival = sim.schedule_at(
                    time, stream._arrive, priority=Phase.MASTER
                )
            return None

        # ---- the walk -------------------------------------------------
        now_before = sim._now
        emitted = [0] * len(streams)
        remaining: List[Tuple[int, int]] = []
        if len(pend) == 1:
            index = pend[0][1]
            count, t_last, nxt = self._walk_single(streams[index], bound)
            emitted[index] = count
            arrival_cycles = count  # gaps are >= 1: cycles are distinct
            total = count
            if nxt is not None:
                remaining.append((nxt, index))
        else:
            total, t_last, arrival_cycles = self._walk_merged(
                pend, bound, emitted, remaining
            )

        # ---- settlement ----------------------------------------------
        sim._now = t_last
        for index, count in enumerate(emitted):
            if not count:
                continue
            stream = streams[index]
            stream._arrived += count
            nbytes = stream.config.burst_len * stream.config.bytes_per_beat
            # Same first-creation order Master.issue uses.
            counter = stream.stats.counter
            counter("issued").add(count)
            counter("issued_bytes").add(count * nbytes)
            port = stream.port
            port._stat_submitted.add(count)
            port._tm_issued.inc(count)
        # One arbitration pass per distinct arrival cycle, each
        # denying every blocked port's head exactly once.
        ic._tm_passes.inc(arrival_cycles)
        for port in blocked:
            port._stat_denials.add(arrival_cycles)
            port._tm_denials.inc(arrival_cycles)
            port.regulator.ff_advance_bulk(t_last)
        remaining.sort()
        for time, index in remaining:
            stream = streams[index]
            stream._pending_arrival = sim.schedule_at(
                time, stream._arrive, priority=Phase.MASTER
            )
        self.regions += 1
        self.cycles_skipped += t_last - now_before
        self.arrivals_emitted += total
        # Idle cycles of the region: the advanced span minus the
        # cycles that held an arrival.
        return (t_last - now_before) - arrival_cycles

    # ------------------------------------------------------------------
    # walks
    # ------------------------------------------------------------------
    # repro: hot -- one iteration per walked arrival
    def _walk_single(
        self, stream: "OpenLoopMaster", bound: int
    ) -> Tuple[int, int, Optional[int]]:
        """Walk one stream's arrivals strictly below ``bound``.

        Returns ``(count, t_last, next_time)`` where ``next_time`` is
        the first unemitted arrival (None when the stream ran out).
        Mirrors ``OpenLoopMaster._arrive`` exactly: indexes the
        precomputed vectors, refills blocks at exhaustion (same RNG
        draw order), and leaves the cursor mid-block where the bound
        cuts.
        """
        cfg = stream.config
        port = stream.port
        queue = port._queues[False]
        name = stream.name
        burst_len = cfg.burst_len
        bytes_per_beat = cfg.bytes_per_beat
        qos_stamp = port.config.qos
        count = 0
        t_last = -1
        while True:
            times = stream._times
            addrs = stream._addrs
            writes = stream._writes
            pos = stream._pos
            n = len(times)
            while pos < n:
                t = times[pos]
                if t >= bound:
                    stream._pos = pos
                    return count, t_last, t
                txn = Transaction(
                    master=name,
                    is_write=writes[pos],
                    addr=addrs[pos],
                    burst_len=burst_len,
                    bytes_per_beat=bytes_per_beat,
                    qos=0,
                    created=t,
                )
                if qos_stamp:
                    txn.qos = qos_stamp
                # mark_issued(t) without the freshness assertion: the
                # transaction was constructed two lines up.
                txn.issued = t
                queue.append(txn)
                t_last = t
                count += 1
                pos += 1
            stream._pos = pos
            if not stream._refill():
                return count, t_last, None

    # repro: hot -- one iteration per merged-stream arrival
    def _walk_merged(
        self,
        pend: List[Tuple[int, int]],
        bound: int,
        emitted: List[int],
        remaining: List[Tuple[int, int]],
    ) -> Tuple[int, int, int]:
        """Min-merge walk over several concurrent streams.

        Emits in ``(time, stream index)`` order -- any deterministic
        tie-break is result-equivalent, since tied arrivals land in
        different ports and only kick the deduplicated arbiter.
        Returns ``(total, t_last, distinct arrival cycles)``.
        """
        streams = self.streams
        heads = sorted(pend)
        total = 0
        t_last = -1
        arrival_cycles = 0
        while heads:
            best = 0
            for i in range(1, len(heads)):
                if heads[i] < heads[best]:
                    best = i
            t, index = heads[best]
            if t >= bound:
                break
            stream = streams[index]
            cfg = stream.config
            port = stream.port
            pos = stream._pos
            txn = Transaction(
                master=stream.name,
                is_write=stream._writes[pos],
                addr=stream._addrs[pos],
                burst_len=cfg.burst_len,
                bytes_per_beat=cfg.bytes_per_beat,
                qos=0,
                created=t,
            )
            qos = port.config.qos
            if qos:
                txn.qos = qos
            txn.issued = t
            port._queues[False].append(txn)
            emitted[index] += 1
            total += 1
            if t != t_last:
                arrival_cycles += 1
                t_last = t
            pos += 1
            stream._pos = pos
            if pos < len(stream._times):
                heads[best] = (stream._times[pos], index)
            elif stream._refill():
                heads[best] = (stream._times[0], index)
            else:
                heads.pop(best)
        remaining.extend(heads)
        return total, t_last, arrival_cycles
