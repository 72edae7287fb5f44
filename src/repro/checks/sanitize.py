"""Runtime kernel sanitizer: invariant assertions around the event queue.

``REPRO_SANITIZE=1`` (or building a simulator from code that wraps
its queue in :class:`SanitizingQueue`) interposes a checking layer
between :class:`repro.sim.kernel.Simulator` and its event queue.
The wrapper is a pure observer of the queue protocol --
push/pop order, sequence numbering and therefore every simulation
result are byte-identical with the sanitizer on or off -- but it
raises :class:`repro.errors.SanitizerError`, with the offending
event's provenance, the moment an invariant breaks:

* **Monotonic dispatch** -- a popped event's time may never precede
  an already-dispatched cycle, and a push may never schedule below
  the last dispatched cycle.
* **Occupancy consistency** -- the heap's O(1) ``live_foreground``
  count must agree with a full structural scan of its entries.

Cost model: per-operation checks are O(1); the structural audit runs
every :data:`AUDIT_INTERVAL` operations (and on ``clear``), so a
sanitized run is slower -- a debugging build, not a production mode.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SanitizerError

if TYPE_CHECKING:  # avoid a cycle: sim.kernel imports this module
    from repro.sim.event import Entry

#: Environment knob enabling the sanitizer ("1"/"on"/...).
SANITIZE_ENV = "REPRO_SANITIZE"

#: Wrapper operations between structural audits.
AUDIT_INTERVAL = 2048


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for a sanitized kernel."""
    value = os.environ.get(SANITIZE_ENV, "").strip().lower()  # repro: allow[DET003]
    return value not in ("", "0", "off", "no", "false")


def _describe(time: int, priority: int, callback: Any) -> str:
    """Provenance string for error messages."""
    name = getattr(callback, "__qualname__", repr(callback))
    return f"event(t={time}, prio={priority}, callback={name})"


class SanitizingQueue:
    """Checking proxy implementing the scheduler queue protocol.

    Args:
        inner: An :class:`EventQueue` (any object with the queue
            protocol works; the structural audit scans the heap and
            limits itself to protocol-level checks for anything else).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self._last_time: Optional[int] = None  # last dispatched cycle
        self._ops = 0
        self._audits = 0
        self._violations = 0

    # ------------------------------------------------------------------
    # queue protocol
    # ------------------------------------------------------------------
    # repro: hot -- per event under REPRO_SANITIZE=1
    def push(
        self,
        time: int,
        priority: int,
        callback: Callable[[], Any],
        daemon: bool = False,
    ) -> None:
        if self._last_time is not None and time < self._last_time:
            self._fail(
                f"push of {_describe(time, priority, callback)} rewinds "
                f"behind the last dispatched cycle {self._last_time}"
            )
        self.inner.push(time, priority, callback, daemon=daemon)
        self._tick()

    def pop(self) -> "Entry":
        entry = self.inner.pop()
        self._check_popped(entry)
        self._tick()
        return entry

    def pop_if_at(self, time: int) -> Optional["Entry"]:
        entry = self.inner.pop_if_at(time)
        if entry is not None:
            if entry[0] != time:
                self._fail(
                    f"pop_if_at({time}) returned "
                    f"{_describe(entry[0], entry[1], entry[3])}"
                )
            self._check_popped(entry)
        self._tick()
        return entry

    def peek_time(self) -> Optional[int]:
        t = self.inner.peek_time()
        if (
            t is not None
            and self._last_time is not None
            and t < self._last_time
        ):
            self._fail(
                f"peek_time()={t} rewinds behind the last dispatched "
                f"cycle {self._last_time}"
            )
        return t

    def clear(self) -> None:
        self.inner.clear()
        self.audit()

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def live_foreground(self) -> int:
        return self.inner.live_foreground

    def stats(self) -> dict:
        stats = self.inner.stats()
        stats.update(
            sanitizer_ops=self._ops,
            sanitizer_audits=self._audits,
        )
        return stats

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def _check_popped(self, entry: "Entry") -> None:
        time = entry[0]
        if self._last_time is not None and time < self._last_time:
            self._fail(
                f"dispatch-time rewind: {_describe(time, entry[1], entry[3])} "
                f"popped after cycle {self._last_time} was already dispatched"
            )
        self._last_time = time

    # repro: hot -- per event under REPRO_SANITIZE=1
    def _tick(self) -> None:
        self._ops += 1
        if self._ops % AUDIT_INTERVAL == 0:
            self.audit()

    # repro: hot -- on the per-event check path under REPRO_SANITIZE=1
    def _fail(self, message: str) -> None:
        self._violations += 1
        raise SanitizerError(message)

    # ------------------------------------------------------------------
    # the structural audit
    # ------------------------------------------------------------------
    # repro: hot -- per audit interval under REPRO_SANITIZE=1
    def audit(self) -> None:
        """Full-scan consistency check of the heap.

        O(pending); runs every :data:`AUDIT_INTERVAL` operations, on
        :meth:`clear`, and on demand from tests.
        """
        self._audits += 1
        # Imported here, not at module top: repro.sim.kernel imports
        # this module, so a top-level queue import would be a cycle.
        from repro.sim.event import EventQueue

        inner = self.inner
        if not isinstance(inner, EventQueue):
            return
        live = 0
        for entry in inner._heap:
            if not entry[4]:
                live += 1
        if live != inner.live_foreground:
            self._fail(
                f"heap live_foreground={inner.live_foreground} but a full "
                f"scan finds {live} live foreground events"
            )
