"""The discrete-event simulation kernel.

The :class:`Simulator` advances an integer cycle counter by dispatching
events in deterministic order.  Components never busy-wait: anything
that has to happen later schedules a callback.  This keeps the cost of
a simulated cycle proportional to the activity in it, which is what
makes million-cycle SoC runs practical in pure Python.

Intra-cycle ordering is expressed with event priorities; the kernel
reserves a small set of well-known levels in :class:`Phase` so that,
within one cycle, regulators replenish before masters retry, masters
present requests before the interconnect arbitrates, and statistics
snapshots run last.

Events live in one binary heap (:class:`repro.sim.event.EventQueue`)
and :meth:`Simulator.run` dispatches them one at a time: peek the next
event time, jump the clock straight to it (idle cycles are never
visited), pop and invoke, then drain the rest of that cycle with
single-scan ``pop_if_at`` calls.  Paper platforms hold tens of live
events, the population at which the heap and the per-event loop are
the fastest options measured.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.checks.sanitize import SanitizingQueue, sanitize_enabled
from repro.errors import SimulationError
from repro.sim.event import EventQueue

class Phase:
    """Well-known intra-cycle dispatch phases (lower fires first)."""

    REGULATOR = 0  #: window replenish / budget updates
    MASTER = 10  #: traffic generators present new requests
    ARBITER = 20  #: interconnect picks among pending requests
    MEMORY = 30  #: DRAM controller scheduling and completions
    RESPONSE = 40  #: responses delivered back to masters
    MONITOR = 50  #: bandwidth/latency sampling
    CONTROL = 60  #: QoS manager actions (register writes landing)
    STATS = 90  #: end-of-cycle bookkeeping


class Simulator:
    """Deterministic event-driven simulator with an integer cycle clock.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> sim.schedule(5, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5]
    """

    def __init__(self) -> None:
        self._queue: Any = EventQueue()
        if sanitize_enabled():
            # Debugging build: every queue operation runs through the
            # invariant assertions of repro.checks.sanitize.  Dispatch
            # order (and therefore every result) is unchanged.
            self._queue = SanitizingQueue(self._queue)
        self._now = 0
        self._running = False
        self._finished = False
        self._stop_requested = False
        #: Components that want a ``finalize(now)`` call at the end of a run.
        self._finalizers: List[Callable[[int], None]] = []
        #: Free-form registry so components can find each other by name.
        self.registry: Dict[str, Any] = {}
        #: Total events dispatched by this simulator (run() and step()).
        #: Accumulated from a loop-local counter at run exit, so the
        #: per-event dispatch cost is one local integer add.
        self.events_dispatched = 0
        #: Attached :class:`repro.telemetry.profiler.PhaseProfiler`
        #: (None = the unprofiled fast dispatch loop runs).
        self._profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in reference-clock cycles."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    # repro: hot -- once per scheduled event
    def schedule(
        self,
        delay: int,
        callback: Callable[[], Any],
        priority: int = Phase.MASTER,
        daemon: bool = False,
    ) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Args:
            delay: Non-negative number of cycles from the current time.
            callback: Zero-argument callable.
            priority: Intra-cycle phase (see :class:`Phase`).
            daemon: Daemon events (self-rescheduling background
                activity like DRAM refresh) do not keep the run alive.

        A scheduled event always fires; no handle is returned, because
        an event cannot be cancelled.  A component that needs at most
        one pending wake-up keeps its own "scheduled at" marker and
        skips scheduling a duplicate.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        self._queue.push(self._now + delay, priority, callback, daemon=daemon)

    # repro: hot -- once per scheduled event
    def schedule_at(
        self,
        time: int,
        callback: Callable[[], Any],
        priority: int = Phase.MASTER,
        daemon: bool = False,
    ) -> None:
        """Schedule ``callback`` at an absolute cycle ``time >= now``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, current time is {self._now}"
            )
        self._queue.push(time, priority, callback, daemon=daemon)

    def add_finalizer(self, fn: Callable[[int], None]) -> None:
        """Register ``fn(now)`` to be invoked when a run completes."""
        self._finalizers.append(fn)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    # repro: hot -- per-event dispatch loop
    def run(self, until: Optional[int] = None) -> int:
        """Dispatch events until the queue drains or ``until`` is reached.

        One full loop iteration (peek, pop, invoke) per event,
        with a same-cycle fast path.

        Args:
            until: Optional absolute cycle bound (inclusive, ``>= now``).
                Events scheduled after ``until`` remain queued; the
                clock is left at ``until`` so a subsequent ``run()``
                continues.

        Returns:
            The simulation time when the run stopped.

        Raises:
            SimulationError: if re-entered from a callback, or if
                ``until`` lies before the current time.
        """
        if self._running:
            raise SimulationError("run() re-entered from within an event callback")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until cycle {until}, current time is {self._now}"
            )
        if self._profiler is not None:
            return self._run_profiled(until)
        self._running = True
        self._stop_requested = False
        queue = self._queue
        # Pre-bound references keep the per-event loop free of
        # repeated attribute lookups (this loop runs once per
        # dispatched event -- millions of times per experiment).
        peek_time = queue.peek_time
        pop = queue.pop
        pop_if_at = queue.pop_if_at
        dispatched = 0
        try:
            while True:
                if self._stop_requested:
                    break
                next_time = peek_time()
                if next_time is None or queue.live_foreground == 0:
                    # Drained: nothing left, or only daemon events
                    # (background refresh/ticks) remain.
                    if until is not None and until > self._now:
                        self._now = until
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                # The clock jumps straight to the next event; no empty
                # cycle is ever visited.
                entry = pop()
                self._now = entry[0]
                entry[3]()
                dispatched += 1
                # Same-cycle fast path: drain the rest of this cycle
                # with single-scan pops, skipping the redundant
                # peek/horizon checks (the horizon can only be crossed
                # when time advances).
                while not self._stop_requested and queue.live_foreground > 0:
                    entry = pop_if_at(self._now)
                    if entry is None:
                        break
                    entry[3]()
                    dispatched += 1
        finally:
            self._running = False
            self.events_dispatched += dispatched
        for fn in self._finalizers:
            fn(self._now)
        self._finished = True
        return self._now

    # repro: hot -- instrumented twin of run()
    def _run_profiled(self, until: Optional[int] = None) -> int:
        """Instrumented twin of :meth:`run` (profiler attached).

        Brackets every callback with two clock reads and feeds the
        attached profiler; kept as a separate loop so detached runs
        pay nothing for the capability.  Dispatch order is identical
        to :meth:`run`.
        """
        profiler = self._profiler
        clock = profiler.clock
        observe = profiler.observe
        self._running = True
        self._stop_requested = False
        queue = self._queue
        peek_time = queue.peek_time
        pop = queue.pop
        pop_if_at = queue.pop_if_at
        dispatched = 0
        wall_start = clock()
        try:
            while True:
                if self._stop_requested:
                    break
                next_time = peek_time()
                if next_time is None or queue.live_foreground == 0:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                entry = pop()
                self._now = entry[0]
                callback = entry[3]
                start = clock()
                callback()
                observe(callback, clock() - start)
                dispatched += 1
                while not self._stop_requested and queue.live_foreground > 0:
                    entry = pop_if_at(self._now)
                    if entry is None:
                        break
                    callback = entry[3]
                    start = clock()
                    callback()
                    observe(callback, clock() - start)
                    dispatched += 1
        finally:
            self._running = False
            self.events_dispatched += dispatched
            profiler.wall_seconds += clock() - wall_start
        for fn in self._finalizers:
            fn(self._now)
        self._finished = True
        return self._now

    def kernel_stats(self) -> Dict[str, Any]:
        """Snapshot of kernel and queue telemetry (pull-style).

        Combines the simulator's clock and dispatch count with the
        heap's state (see ``EventQueue.stats``);
        collecting it costs nothing until called, so it is always
        available.  Component counters are read through the platform's
        probe map instead (:mod:`repro.probes.map`).
        """
        stats: Dict[str, Any] = {
            "now": self._now,
            "events_dispatched": self.events_dispatched,
        }
        stats.update(self._queue.stats())
        return stats

    def request_stop(self) -> None:
        """Ask a running :meth:`run` to return after the current event.

        Used by experiment harnesses to end a run as soon as the
        masters under measurement finish their work, instead of
        simulating background traffic to the horizon.
        """
        self._stop_requested = True

    # repro: hot
    def step(self) -> Optional[int]:
        """Dispatch exactly one event; returns its time or None if idle.

        Consistent with :meth:`run`: when only daemon events
        (background refresh/ticks) remain, the simulation counts as
        drained and ``step()`` returns ``None`` instead of ticking
        daemons forever.
        """
        queue = self._queue
        if queue.live_foreground == 0 or queue.peek_time() is None:
            return None
        entry = queue.pop()
        time = entry[0]
        self._now = time
        entry[3]()
        self.events_dispatched += 1
        return time

    @property
    def pending_events(self) -> int:
        """Number of events still queued, daemons included (every
        queued event fires unless the run ends first)."""
        return len(self._queue)
