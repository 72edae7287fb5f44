"""The kernel's event queue: one binary heap of plain tuples.

An event is the heap entry itself, a ``(time, priority, seq, callback,
daemon)`` tuple:

* ``time`` -- absolute cycle at which the event fires;
* ``priority`` -- lower values fire first within the same cycle
  (components use :class:`repro.sim.kernel.Phase` levels to model
  intra-cycle ordering, e.g. regulators replenish before ports retry);
* ``seq`` -- a monotonically increasing tie-breaker assigned by the
  queue, which makes dispatch fully deterministic: two events
  scheduled for the same cycle at the same priority fire in
  scheduling order;
* ``callback`` -- the zero-argument callable invoked at dispatch;
* ``daemon`` -- daemon events (periodic background activity such as
  DRAM refresh or OS ticks) do not keep a run alive: when only daemons
  remain, the run is considered drained.

Because ``seq`` is unique, ``heapq`` orders entries on the first
three fields through the C tuple comparison and never compares
callbacks.  Nothing is allocated per event beyond the tuple, and a
scheduled event cannot be cancelled: a component that needs at most
one pending wake-up keeps its own "scheduled at" marker and skips
scheduling a duplicate.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: A queued event: ``(time, priority, seq, callback, daemon)``.
Entry = Tuple[int, int, int, Callable[[], Any], bool]


class EventQueue:
    """The kernel's event queue: one deterministic binary heap.

    Attributes:
        live_foreground: Pending non-daemon events.  A run is drained
            when this reaches zero, whatever daemons remain queued.
    """

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._next_seq = 0
        self.live_foreground = 0

    def __len__(self) -> int:
        return len(self._heap)

    # repro: hot
    def push(
        self,
        time: int,
        priority: int,
        callback: Callable[[], Any],
        daemon: bool = False,
    ) -> None:
        """Enqueue ``callback`` to fire at ``time`` with ``priority``."""
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (time, priority, seq, callback, daemon))
        if not daemon:
            self.live_foreground += 1

    # repro: hot
    def pop(self) -> Entry:
        """Remove and return the earliest entry.

        Raises:
            SimulationError: if the queue is empty.
        """
        if not self._heap:
            raise SimulationError("pop() on an empty event queue")
        entry = heapq.heappop(self._heap)
        if not entry[4]:
            self.live_foreground -= 1
        return entry

    # repro: hot
    def pop_if_at(self, time: int) -> Optional[Entry]:
        """Pop the next entry only if it fires at ``time``.

        The same-cycle fast path of :meth:`Simulator.run`: one heap
        inspection both answers "is there more work this cycle?" and
        delivers the event.
        """
        heap = self._heap
        if not heap or heap[0][0] != time:
            return None
        entry = heapq.heappop(heap)
        if not entry[4]:
            self.live_foreground -= 1
        return entry

    # repro: hot
    def peek_time(self) -> Optional[int]:
        """Return the firing time of the next entry, or None."""
        heap = self._heap
        return heap[0][0] if heap else None

    def clear(self) -> None:
        self._heap.clear()
        self.live_foreground = 0

    def stats(self) -> dict:
        """Pull-style queue statistics (state plus the push count)."""
        return {
            "pending": len(self._heap),
            "live_foreground": self.live_foreground,
            "events_scheduled": self._next_seq,
        }
