"""A deliberately naive event queue used as a test oracle.

:class:`ReferenceQueue` implements the queue surface the simulator
uses (``push``/``pop``/``pop_if_at``/``peek_time``/``recycle``,
``live_foreground``, ``len`` and ``stats``) on an unsorted list that
is scanned linearly for the minimum ``(time, priority, seq)``.  It has
no heap, no lazy cancellation, no compaction and no free list, so any
dispatch-order difference between it and :class:`EventQueue` points at
one of the heap's optimisations.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import repro.sim.kernel as kernel_mod
from repro.errors import SimulationError
from repro.sim.event import Event, EventQueue


def _key(event: Event):
    return (event.time, event.priority, event.seq)


class ReferenceQueue:
    """Linear-scan event queue with eager cancellation."""

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def live_foreground(self) -> int:
        return sum(1 for event in self._events if not event.daemon)

    def push(
        self,
        time: int,
        priority: int,
        callback: Callable[[], Any],
        daemon: bool = False,
    ) -> Event:
        event = Event(time, priority, self._next_seq, callback, daemon=daemon)
        self._next_seq += 1
        event._queue = self  # type: ignore[assignment]
        self._events.append(event)
        return event

    def _on_cancel(self, event: Event) -> None:
        self._events.remove(event)
        event._queue = None

    def _take(self, event: Event) -> Event:
        self._events.remove(event)
        event._queue = None
        return event

    def pop(self) -> Event:
        if not self._events:
            raise SimulationError("pop from an empty event queue")
        return self._take(min(self._events, key=_key))

    def pop_if_at(self, time: int) -> Optional[Event]:
        if not self._events:
            return None
        event = min(self._events, key=_key)
        if event.time != time:
            return None
        return self._take(event)

    def peek_time(self) -> Optional[int]:
        if not self._events:
            return None
        return min(self._events, key=_key).time

    def recycle(self, event: Event) -> None:
        pass

    def clear(self) -> None:
        for event in self._events:
            event._queue = None
        self._events.clear()

    def stats(self) -> dict:
        return {
            "pending": len(self._events),
            "live_foreground": self.live_foreground,
            "events_scheduled": self._next_seq,
        }


#: Queue implementations by test-parameter id.
QUEUES = {"heap": EventQueue, "reference": ReferenceQueue}


def use_queue(monkeypatch, name):
    """Make every :class:`Simulator` built from now on (within the
    test) dispatch from a fresh ``QUEUES[name]``."""
    monkeypatch.setattr(kernel_mod, "EventQueue", QUEUES[name])
