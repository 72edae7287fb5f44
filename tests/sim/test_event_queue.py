"""Unit tests for the event queue (:class:`EventQueue`, a binary heap).

Tests build their queue through the ``make_queue`` fixture, whose
parameter ids name the queue implementation under test.  Popped
events are ``(time, priority, seq, callback, daemon)`` tuples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.event import EventQueue

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
        q.pop()[3]()
        q.pop()[3]()
        assert fired == ["a", "b"]

    def test_same_time_orders_by_priority(self, make_queue):
        q = make_queue()
        fired = []
        q.push(5, 7, lambda: fired.append("low"))
        q.push(5, 1, lambda: fired.append("high"))
        q.pop()[3]()
        q.pop()[3]()
        assert fired == ["high", "low"]

    def test_same_time_same_priority_fifo(self, make_queue):
        q = make_queue()
        fired = []
        for i in range(5):
            q.push(5, 0, lambda i=i: fired.append(i))
        while len(q):
            q.pop()[3]()
        assert fired == [0, 1, 2, 3, 4]

    def test_push_returns_nothing(self, make_queue):
        # No handle: a scheduled event cannot be cancelled.
        assert make_queue().push(1, 0, lambda: None) is None

    def test_entry_fields(self, make_queue):
        q = make_queue()
        callback = lambda: None  # noqa: E731
        q.push(3, 2, callback, daemon=True)
        assert q.pop() == (3, 2, 0, callback, True)


class TestEmptyQueue:
    def test_pop_empty_raises(self, make_queue):
        q = make_queue()
        with pytest.raises(SimulationError):
            q.pop()

    def test_peek_empty_returns_none(self, make_queue):
        assert make_queue().peek_time() is None

    def test_clear(self, make_queue):
        q = make_queue()
        q.push(1, 0, lambda: None)
        q.clear()
        assert q.peek_time() is None
        assert len(q) == 0
        assert q.live_foreground == 0


class TestPopIfAt:
    def test_pops_only_matching_time(self, make_queue):
        q = make_queue()
        q.push(5, 0, lambda: None)
        q.push(7, 0, lambda: None)
        assert q.pop_if_at(4) is None
        entry = q.pop_if_at(5)
        assert entry is not None and entry[0] == 5
        assert q.pop_if_at(5) is None
        assert q.peek_time() == 7

    def test_empty_queue_returns_none(self, make_queue):
        assert make_queue().pop_if_at(0) is None


#: One step of the property-test workload: (opcode, operand) pairs
#: drawn small so sequences explore push/pop interleavings densely.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "push_daemon", "pop", "peek"]),
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
        below zero, however daemon and foreground pushes and pops
        interleave."""
        q = BACKENDS[backend]()
        model_live = 0
        for op, arg in ops:
            if op == "push":
                q.push(arg, arg % 5, lambda: None)
                model_live += 1
            elif op == "push_daemon":
                q.push(arg, arg % 5, lambda: None, daemon=True)
            elif op == "pop":
                if len(q):
                    if not q.pop()[4]:
                        model_live -= 1
                else:
                    assert q.live_foreground == 0
            elif op == "peek":
                q.peek_time()
            assert q.live_foreground == model_live
            assert q.live_foreground >= 0
