"""A deliberately naive event queue used as a test oracle.

:class:`ReferenceQueue` implements the queue surface the simulator
uses (``push``/``pop``/``pop_if_at``/``peek_time``,
``live_foreground``, ``len`` and ``stats``) on an unsorted list of
``(time, priority, seq, callback, daemon)`` entries that is scanned
linearly for the minimum ``(time, priority, seq)``.  It has no heap
and no same-cycle fast path, so any dispatch-order difference between
it and :class:`EventQueue` points at one of the heap's optimisations.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

import repro.sim.kernel as kernel_mod
from repro.errors import SimulationError
from repro.sim.event import Entry, EventQueue


def _key(entry: Entry):
    return entry[:3]


class ReferenceQueue:
    """Linear-scan event queue."""

    def __init__(self) -> None:
        self._entries: List[Entry] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def live_foreground(self) -> int:
        return sum(1 for entry in self._entries if not entry[4])

    def push(
        self,
        time: int,
        priority: int,
        callback: Callable[[], Any],
        daemon: bool = False,
    ) -> None:
        self._entries.append((time, priority, self._next_seq, callback, daemon))
        self._next_seq += 1

    def pop(self) -> Entry:
        if not self._entries:
            raise SimulationError("pop from an empty event queue")
        entry = min(self._entries, key=_key)
        self._entries.remove(entry)
        return entry

    def pop_if_at(self, time: int) -> Optional[Entry]:
        if not self._entries:
            return None
        entry = min(self._entries, key=_key)
        if entry[0] != time:
            return None
        self._entries.remove(entry)
        return entry

    def peek_time(self) -> Optional[int]:
        if not self._entries:
            return None
        return min(self._entries, key=_key)[0]

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        return {
            "pending": len(self._entries),
            "live_foreground": self.live_foreground,
            "events_scheduled": self._next_seq,
        }


#: Queue implementations by test-parameter id.
QUEUES = {"heap": EventQueue, "reference": ReferenceQueue}


def use_queue(monkeypatch, name):
    """Make every :class:`Simulator` built from now on (within the
    test) dispatch from a fresh ``QUEUES[name]``."""
    monkeypatch.setattr(kernel_mod, "EventQueue", QUEUES[name])
