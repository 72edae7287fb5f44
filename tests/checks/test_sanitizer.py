"""Kernel sanitizer: injected violations must be loud, clean runs silent."""

import pytest

from repro.checks.sanitize import SanitizingQueue, sanitize_enabled
from repro.errors import SanitizerError
from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator


def noop():
    pass


@pytest.fixture(params=[EventQueue], ids=["heap"])
def queue(request):
    return SanitizingQueue(request.param())


class TestCleanRuns:
    def test_push_pop_cycle(self, queue):
        for t in (3, 1, 2):
            queue.push(t, 0, noop)
        times = []
        while queue.live_foreground:
            times.append(queue.pop()[0])
        assert times == [1, 2, 3]
        queue.audit()

    def test_audit_runs_periodically(self, queue):
        for t in range(3000):
            queue.push(t, 0, noop)
            assert queue.pop()[:3] == (t, 0, t)
        assert queue.stats()["sanitizer_audits"] >= 1

    def test_clear_resets_tracking(self, queue):
        queue.push(5, 0, noop)
        queue.clear()
        assert len(queue) == 0
        assert queue.peek_time() is None

    def test_sanitize_enabled_parses_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()

    def test_simulator_wraps_queue_under_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        sim = Simulator()
        assert isinstance(sim._queue, SanitizingQueue)
        assert "sanitizer_ops" in sim.kernel_stats()


class TestInjectedViolations:
    def test_push_time_rewind_detected(self, queue):
        queue.push(10, 0, noop)
        queue.pop()
        with pytest.raises(SanitizerError, match="rewind"):
            queue.push(5, 0, noop)

    def test_violation_message_carries_provenance(self, queue):
        queue.push(9, 0, noop)
        queue.pop()
        with pytest.raises(SanitizerError) as exc:
            queue.push(7, 3, noop)
        message = str(exc.value)
        assert "t=7" in message and "prio=3" in message
        assert "noop" in message

    def test_heap_occupancy_corruption_detected(self):
        queue = SanitizingQueue(EventQueue())
        queue.push(5, 0, noop)
        queue.inner.live_foreground += 1
        with pytest.raises(SanitizerError, match="live_foreground"):
            queue.audit()


class _BrokenQueue:
    """Scripted inner queue used to exercise pop-side invariants."""

    def __init__(self, events):
        self.events = list(events)
        self.live_foreground = len(self.events)

    def push(self, time, priority, callback, daemon=False):
        self.events.append((time, priority, 0, callback, daemon))
        self.live_foreground += 1

    def pop(self):
        self.live_foreground -= 1
        return self.events.pop(0)

    def pop_if_at(self, time):
        return self.pop()

    def peek_time(self):
        return self.events[0][0] if self.events else None

    def __len__(self):
        return len(self.events)


class TestProtocolChecks:
    def test_dispatch_time_rewind_detected(self):
        events = [(10, 0, 0, noop, False), (4, 0, 1, noop, False)]
        queue = SanitizingQueue(_BrokenQueue(events))
        queue.pop()
        with pytest.raises(SanitizerError, match="rewind"):
            queue.pop()

    def test_pop_if_at_wrong_time_detected(self):
        queue = SanitizingQueue(_BrokenQueue([(9, 0, 0, noop, False)]))
        with pytest.raises(SanitizerError, match="pop_if_at"):
            queue.pop_if_at(5)

    def test_peek_time_rewind_detected(self):
        events = [(10, 0, 0, noop, False), (4, 0, 1, noop, False)]
        queue = SanitizingQueue(_BrokenQueue(events))
        queue.pop()
        with pytest.raises(SanitizerError, match="rewind"):
            queue.peek_time()
