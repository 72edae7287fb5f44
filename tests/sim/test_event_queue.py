"""Unit tests for the event queue (:class:`EventQueue`, a binary heap).

Tests build their queue through the ``make_queue`` fixture, whose
parameter ids name the queue implementation under test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.event import _COMPACT_MIN_HEAP, Event, EventQueue

BACKENDS = {"heap": EventQueue}


@pytest.fixture(params=sorted(BACKENDS), name="make_queue")
def _make_queue(request):
    return BACKENDS[request.param]


class TestEventOrdering:
    def test_orders_by_time(self, make_queue):
        q = make_queue()
        fired = []
        q.push(10, 0, lambda: fired.append("b"))
        q.push(5, 0, lambda: fired.append("a"))
        q.pop().callback()
        q.pop().callback()
        assert fired == ["a", "b"]

    def test_same_time_orders_by_priority(self, make_queue):
        q = make_queue()
        fired = []
        q.push(5, 7, lambda: fired.append("low"))
        q.push(5, 1, lambda: fired.append("high"))
        q.pop().callback()
        q.pop().callback()
        assert fired == ["high", "low"]

    def test_same_time_same_priority_fifo(self, make_queue):
        q = make_queue()
        fired = []
        for i in range(5):
            q.push(5, 0, lambda i=i: fired.append(i))
        while len(q):
            q.pop().callback()
        assert fired == [0, 1, 2, 3, 4]

    def test_event_lt_comparison(self):
        a = Event(1, 0, 0, lambda: None)
        b = Event(1, 0, 1, lambda: None)
        assert a < b
        assert not (b < a)


class TestCancellation:
    def test_cancelled_event_is_skipped(self, make_queue):
        q = make_queue()
        fired = []
        ev = q.push(1, 0, lambda: fired.append("x"))
        q.push(2, 0, lambda: fired.append("y"))
        ev.cancel()
        q.pop().callback()
        assert fired == ["y"]

    def test_pop_empty_raises(self, make_queue):
        q = make_queue()
        with pytest.raises(SimulationError):
            q.pop()

    def test_pop_all_cancelled_raises(self, make_queue):
        q = make_queue()
        q.push(1, 0, lambda: None).cancel()
        with pytest.raises(SimulationError):
            q.pop()

    def test_peek_skips_cancelled(self, make_queue):
        q = make_queue()
        q.push(1, 0, lambda: None).cancel()
        q.push(9, 0, lambda: None)
        assert q.peek_time() == 9

    def test_peek_empty_returns_none(self, make_queue):
        assert make_queue().peek_time() is None

    def test_clear(self, make_queue):
        q = make_queue()
        q.push(1, 0, lambda: None)
        q.clear()
        assert q.peek_time() is None
        assert len(q) == 0

    def test_cancel_after_clear_is_inert(self, make_queue):
        q = make_queue()
        ev = q.push(1, 0, lambda: None)
        q.clear()
        ev.cancel()
        assert q.live_foreground == 0


class TestLiveForegroundAccounting:
    def test_cancel_decrements_immediately(self, make_queue):
        q = make_queue()
        ev = q.push(1, 0, lambda: None)
        q.push(2, 0, lambda: None)
        assert q.live_foreground == 2
        ev.cancel()
        # Exact accounting: the shell is still queued but no longer
        # counts as live work.
        assert q.live_foreground == 1
        assert len(q) == 2

    def test_double_cancel_counts_once(self, make_queue):
        q = make_queue()
        ev = q.push(1, 0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert q.live_foreground == 0

    def test_cancel_after_pop_does_not_decrement(self, make_queue):
        q = make_queue()
        ev = q.push(1, 0, lambda: None)
        q.push(2, 0, lambda: None)
        popped = q.pop()
        assert popped is ev
        assert q.live_foreground == 1
        ev.cancel()  # already dispatched; must not touch the counter
        assert q.live_foreground == 1

    def test_daemon_cancel_leaves_foreground_alone(self, make_queue):
        q = make_queue()
        ev = q.push(1, 0, lambda: None, daemon=True)
        q.push(2, 0, lambda: None)
        assert q.live_foreground == 1
        ev.cancel()
        assert q.live_foreground == 1

    def test_popping_cancelled_shells_does_not_double_count(self, make_queue):
        q = make_queue()
        events = [q.push(t, 0, lambda: None) for t in range(5)]
        for ev in events[:4]:
            ev.cancel()
        assert q.live_foreground == 1
        assert q.pop() is events[4]
        assert q.live_foreground == 0


class TestCompaction:
    def test_majority_cancelled_queue_compacts(self, make_queue):
        q = make_queue()
        events = [q.push(t, 0, lambda: None) for t in range(200)]
        for ev in events[:150]:
            ev.cancel()
        # Shells were the majority at some point, so a compaction ran
        # and the queue shrank under the number of pushes instead of
        # retaining every shell; survivors stay in the minority.
        assert len(q) < 200
        assert q.cancelled_pending * 2 <= len(q)
        assert q.live_foreground == 50

    def test_compaction_preserves_order(self, make_queue):
        q = make_queue()
        fired = []
        events = []
        for t in range(100):
            events.append(q.push(t, 0, lambda t=t: fired.append(t)))
        for ev in events:
            if ev.time % 2:
                ev.cancel()
        while q.live_foreground:
            q.pop().callback()
        assert fired == list(range(0, 100, 2))

    def test_small_queues_stay_lazy(self, make_queue):
        q = make_queue()
        events = [q.push(t, 0, lambda: None) for t in range(10)]
        for ev in events[:9]:
            ev.cancel()
        # Below the compaction floor nothing is rebuilt eagerly.
        assert len(q) == 10
        assert q.cancelled_pending == 9

    def test_cancel_heavy_at_compaction_floor(self, make_queue):
        # Exactly _COMPACT_MIN_HEAP resident events, all but one
        # cancelled: the threshold comparison sits right on its
        # boundary, where an off-by-one would either compact a queue
        # meant to stay lazy or let shells accumulate unboundedly.
        q = make_queue()
        events = [
            q.push(t, 0, lambda: None) for t in range(_COMPACT_MIN_HEAP)
        ]
        for ev in events[:-1]:
            ev.cancel()
        assert q.live_foreground == 1
        # The majority threshold was crossed while the queue sat at the
        # floor, so a compaction ran and shrank it; once below the
        # floor, remaining shells are legitimately retained lazily.
        assert len(q) < _COMPACT_MIN_HEAP
        assert q.pop() is events[-1]
        with pytest.raises(SimulationError):
            q.pop()

    def test_one_below_compaction_floor_stays_lazy(self, make_queue):
        q = make_queue()
        events = [
            q.push(t, 0, lambda: None) for t in range(_COMPACT_MIN_HEAP - 1)
        ]
        for ev in events:
            ev.cancel()
        # One short of the floor: every shell is retained lazily.
        assert len(q) == _COMPACT_MIN_HEAP - 1
        assert q.cancelled_pending == _COMPACT_MIN_HEAP - 1

    def test_cancel_after_dispatch_never_skews_compaction(self, make_queue):
        # A late cancel() on a dispatched event must neither decrement
        # live_foreground nor count toward the pending-shell total that
        # drives compaction.
        q = make_queue()
        dispatched = []
        for t in range(_COMPACT_MIN_HEAP):
            q.push(t, 0, lambda: None)
        for _ in range(_COMPACT_MIN_HEAP // 2):
            dispatched.append(q.pop())
        before = q.cancelled_pending
        for ev in dispatched:
            ev.cancel()
        assert q.cancelled_pending == before
        assert q.live_foreground == _COMPACT_MIN_HEAP - len(dispatched)
        remaining = 0
        while q.live_foreground:
            q.pop()
            remaining += 1
        assert remaining == _COMPACT_MIN_HEAP - len(dispatched)


class TestPopIfAt:
    def test_pops_only_matching_time(self, make_queue):
        q = make_queue()
        q.push(5, 0, lambda: None)
        q.push(7, 0, lambda: None)
        assert q.pop_if_at(4) is None
        ev = q.pop_if_at(5)
        assert ev is not None and ev.time == 5
        assert q.pop_if_at(5) is None
        assert q.peek_time() == 7

    def test_skips_cancelled_shells(self, make_queue):
        q = make_queue()
        q.push(5, 0, lambda: None).cancel()
        q.push(5, 1, lambda: None)
        ev = q.pop_if_at(5)
        assert ev is not None and ev.priority == 1

    def test_empty_queue_returns_none(self, make_queue):
        assert make_queue().pop_if_at(0) is None


#: One step of the property-test workload: (opcode, operand) pairs
#: drawn small so sequences explore cancel/pop interleavings densely.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "push_daemon", "cancel", "pop", "peek"]),
        st.integers(min_value=0, max_value=600),
    ),
    max_size=120,
)


class TestLiveForegroundProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_live_foreground_never_negative(self, backend, ops):
        """``live_foreground`` tracks the model count and never dips
        below zero, however pushes, cancels (including double cancels
        and cancels of dispatched events) and pops interleave."""
        q = BACKENDS[backend]()
        handles = []  # every handle ever issued, dispatched or not
        model_live = 0
        for op, arg in ops:
            if op == "push":
                handles.append(q.push(arg, arg % 5, lambda: None))
                model_live += 1
            elif op == "push_daemon":
                handles.append(
                    q.push(arg, arg % 5, lambda: None, daemon=True)
                )
            elif op == "cancel" and handles:
                ev = handles[arg % len(handles)]
                live_before = (
                    ev._queue is q and not ev.cancelled and not ev.daemon
                )
                ev.cancel()
                if live_before:
                    model_live -= 1
            elif op == "pop":
                if q.live_foreground:
                    ev = q.pop()
                    assert not ev.cancelled
                    if not ev.daemon:
                        model_live -= 1
                else:
                    assert q.live_foreground == 0
            elif op == "peek":
                q.peek_time()
            assert q.live_foreground == model_live
            assert q.live_foreground >= 0
