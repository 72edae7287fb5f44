"""Runtime kernel sanitizer: invariant assertions around the queues.

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
* **No double-free** -- an event already returned to the free list
  cannot be recycled again (the refcount guard in production makes
  this near-impossible; the sanitizer makes it loud).
* **No post-free mutation** -- a freed event's identity fields must
  stay untouched until the pool legitimately re-arms it.
* **Occupancy consistency** -- the heap's O(1) accounting
  (``live_foreground``, cancelled shells) must agree with a full
  structural scan of its contents.

Cost model: per-operation checks are O(1); the structural audit runs
every :data:`AUDIT_INTERVAL` operations (and on ``clear``), so a
sanitized run is a few times slower -- a debugging build, not a
production mode.  Event pooling is disabled while sanitizing (the
wrapper's provenance table holds references, which the refcount guard
correctly treats as escapes); pooling is a pure allocation
optimization, so results are unaffected.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.errors import SanitizerError

if TYPE_CHECKING:  # avoid a cycle: sim.kernel imports this module
    from repro.sim.event import Event

#: Environment knob enabling the sanitizer ("1"/"on"/...).
SANITIZE_ENV = "REPRO_SANITIZE"

#: Wrapper operations between structural audits.
AUDIT_INTERVAL = 2048

#: Freed events tracked for double-free/mutation detection (FIFO cap,
#: mirroring the production pool cap).
_FREED_CAP = 4096


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for a sanitized kernel."""
    value = os.environ.get(SANITIZE_ENV, "").strip().lower()  # repro: allow[DET003]
    return value not in ("", "0", "off", "no", "false")


# repro: hot -- per event under REPRO_SANITIZE=1
def _describe(event: "Event") -> str:
    """Provenance string for error messages."""
    callback = getattr(event, "callback", None)
    name = getattr(callback, "__qualname__", repr(callback))
    return (
        f"Event(t={event.time}, prio={event.priority}, seq={event.seq}, "
        f"daemon={event.daemon}, callback={name})"
    )


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
        #: id(event) -> provenance of events currently queued.
        self._resident: Dict[int, str] = {}
        #: id(event) -> (event, identity snapshot) of freed events.
        self._freed: "OrderedDict[int, Tuple[Event, Tuple]]" = OrderedDict()
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
    ) -> "Event":
        if self._last_time is not None and time < self._last_time:
            self._violations += 1
            raise SanitizerError(
                f"push at t={time} rewinds behind the last dispatched "
                f"cycle {self._last_time} (priority={priority}, "
                f"callback={getattr(callback, '__qualname__', callback)!r})"
            )
        event = self.inner.push(time, priority, callback, daemon=daemon)
        # A pushed object must not be one the wrapper still considers
        # freed-and-dead: the inner pool cannot re-arm events while the
        # sanitizer holds their references, so resurrection here means
        # the free list leaked a live handle.
        if id(event) in self._freed:
            self._violations += 1
            raise SanitizerError(
                f"freed event resurrected by push: {_describe(event)}"
            )
        self._resident[id(event)] = _describe(event)
        self._tick()
        return event

    def pop(self) -> "Event":
        event = self.inner.pop()
        self._check_popped(event)
        self._tick()
        return event

    def pop_if_at(self, time: int) -> Optional["Event"]:
        event = self.inner.pop_if_at(time)
        if event is not None:
            if event.time != time:
                self._violations += 1
                raise SanitizerError(
                    f"pop_if_at({time}) returned {_describe(event)}"
                )
            self._check_popped(event)
        self._tick()
        return event

    def peek_time(self) -> Optional[int]:
        t = self.inner.peek_time()
        if (
            t is not None
            and self._last_time is not None
            and t < self._last_time
        ):
            self._violations += 1
            raise SanitizerError(
                f"peek_time()={t} rewinds behind the last dispatched "
                f"cycle {self._last_time}"
            )
        return t

    def recycle(self, event: "Event") -> None:
        key = id(event)
        if key in self._freed:
            self._violations += 1
            raise SanitizerError(
                f"double-free into the event pool: "
                f"{self._freed[key][1][4]} freed again as {_describe(event)}"
            )
        if key in self._resident:
            self._violations += 1
            raise SanitizerError(
                f"recycle of a still-queued event: {_describe(event)}"
            )
        # Track instead of delegating: the snapshot pins the object so
        # the id stays valid, which (deliberately) also disables inner
        # pooling -- see the module docstring's cost model.
        self._freed[key] = (event, self._snapshot(event))
        while len(self._freed) > _FREED_CAP:
            _, (old, snap) = self._freed.popitem(last=False)
            self._check_unmutated(old, snap)
        self._tick()

    def clear(self) -> None:
        self.inner.clear()
        self._resident.clear()
        self.audit()

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def live_foreground(self) -> int:
        return self.inner.live_foreground

    @property
    def cancelled_pending(self) -> int:
        return self.inner.cancelled_pending

    def stats(self) -> dict:
        stats = self.inner.stats()
        stats.update(
            sanitizer_ops=self._ops,
            sanitizer_audits=self._audits,
            sanitizer_freed_tracked=len(self._freed),
        )
        return stats

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def _check_popped(self, event: "Event") -> None:
        if event.cancelled:
            self._violations += 1
            raise SanitizerError(
                f"pop delivered a cancelled event: {_describe(event)}"
            )
        if id(event) in self._freed:
            self._violations += 1
            raise SanitizerError(
                f"pop delivered a freed event: {_describe(event)}"
            )
        if self._last_time is not None and event.time < self._last_time:
            self._violations += 1
            raise SanitizerError(
                f"dispatch-time rewind: {_describe(event)} popped after "
                f"cycle {self._last_time} was already dispatched"
            )
        self._last_time = event.time
        self._resident.pop(id(event), None)

    @staticmethod
    def _snapshot(event: "Event") -> Tuple:
        return (
            event.time,
            event.priority,
            event.seq,
            event.callback,
            _describe(event),
        )

    # repro: hot -- per event under REPRO_SANITIZE=1
    def _check_unmutated(self, event: "Event", snap: Tuple) -> None:
        current = (event.time, event.priority, event.seq, event.callback)
        if current != snap[:4]:
            self._violations += 1
            raise SanitizerError(
                f"post-free mutation of a pooled event: {snap[4]} "
                f"now reads {_describe(event)}"
            )

    # repro: hot -- per event under REPRO_SANITIZE=1
    def _tick(self) -> None:
        self._ops += 1
        if self._ops % AUDIT_INTERVAL == 0:
            self.audit()

    # ------------------------------------------------------------------
    # the structural audit
    # ------------------------------------------------------------------
    # repro: hot -- per audit interval under REPRO_SANITIZE=1
    def audit(self) -> None:
        """Full-scan consistency check of freed events and the heap.

        O(pool + pending); runs every :data:`AUDIT_INTERVAL`
        operations, on :meth:`clear`, and on demand from tests.
        """
        self._audits += 1
        # Imported here, not at module top: repro.sim.kernel imports
        # this module, so a top-level queue import would be a cycle.
        from repro.sim.event import EventQueue

        for event, snap in self._freed.values():
            self._check_unmutated(event, snap)
        inner = self.inner
        if not isinstance(inner, EventQueue):
            return
        actual = self._audit_heap(inner)
        # Prune provenance of events that left the queue without a pop
        # (cancelled shells dropped by purge/compaction paths), so the
        # table tracks only what is actually resident.
        resident = self._resident
        for key in list(resident):
            if key not in actual:
                del resident[key]

    # repro: hot -- on the per-event check path under REPRO_SANITIZE=1
    def _fail(self, message: str) -> None:
        self._violations += 1
        raise SanitizerError(message)

    # repro: hot -- per audit interval under REPRO_SANITIZE=1
    def _audit_heap(self, q: Any) -> set:
        live = cancelled = 0
        actual = set()
        for entry in q._heap:
            event = entry[3]
            actual.add(id(event))
            if event.cancelled:
                cancelled += 1
            elif not event.daemon:
                live += 1
        if live != q.live_foreground:
            self._fail(
                f"heap live_foreground={q.live_foreground} but a full "
                f"scan finds {live} live foreground events"
            )
        if cancelled != q.cancelled_pending:
            self._fail(
                f"heap cancelled_pending={q.cancelled_pending} but a "
                f"full scan finds {cancelled} cancelled shells"
            )
        return actual
