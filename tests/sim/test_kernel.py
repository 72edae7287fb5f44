"""Unit tests for the Simulator event loop."""

import pytest

from repro.errors import SimulationError
from repro.sim.event import EventQueue
from repro.sim.kernel import Phase, Simulator


class TestScheduling:
    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5]
        assert sim.now == 5

    def test_schedule_zero_delay(self, sim):
        fired = []
        sim.schedule(0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute(self, sim):
        fired = []
        sim.schedule_at(42, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42]

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_chained_events(self, sim):
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(3, second)

        def second():
            fired.append(("second", sim.now))

        sim.schedule(2, first)
        sim.run()
        assert fired == [("first", 2), ("second", 5)]

    def test_schedule_returns_no_handle(self, sim):
        assert sim.schedule(5, lambda: None) is None
        assert sim.schedule_at(7, lambda: None) is None


class TestRunBounds:
    def test_until_stops_clock_at_bound(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(1))
        end = sim.run(until=50)
        assert end == 50
        assert fired == []
        assert sim.pending_events == 1

    def test_until_resumes(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(sim.now))
        sim.run(until=50)
        sim.run(until=150)
        assert fired == [100]

    def test_until_with_empty_queue_advances_clock(self, sim):
        end = sim.run(until=77)
        assert end == 77
        assert sim.now == 77

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(50, lambda: fired.append(1))
        sim.run(until=50)
        assert fired == [1]

    def test_until_before_now_rejected(self, sim):
        # Regression: run(until) below the clock used to rewind ``now``,
        # after which schedule_at() accepted times already passed.
        sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.run(until=15) == 15
        with pytest.raises(SimulationError):
            sim.run(until=5)
        assert sim.now == 15
        with pytest.raises(SimulationError):
            sim.schedule_at(7, lambda: None)
        assert sim.run(until=15) == 15  # until == now stays legal
        assert sim.run() == 20

    def test_bounded_runs_resume_in_order(self):
        # A cascading workload run in bounded slices dispatches exactly
        # as one unbounded run does.
        def drive(bounds):
            s = Simulator()
            journal = []

            def work(tag):
                journal.append((s.now, tag))
                if tag < 40:
                    s.schedule(tag % 3, lambda: work(tag + 1), priority=tag % 4)

            s.schedule(1, lambda: work(0))
            s.schedule(2, lambda: journal.append((s.now, "tick")), daemon=True)
            for bound in bounds:
                assert s.run(until=bound) == bound
            s.run()
            journal.append(("end", s.now, s.events_dispatched))
            return journal

        assert drive((3, 9, 9, 17)) == drive(())


class TestIntraCyclePhases:
    def test_phases_order_within_cycle(self, sim):
        order = []
        sim.schedule(5, lambda: order.append("stats"), priority=Phase.STATS)
        sim.schedule(5, lambda: order.append("reg"), priority=Phase.REGULATOR)
        sim.schedule(5, lambda: order.append("arb"), priority=Phase.ARBITER)
        sim.schedule(5, lambda: order.append("master"), priority=Phase.MASTER)
        sim.run()
        assert order == ["reg", "master", "arb", "stats"]

    def test_same_cycle_push_sorts_among_remaining_events(self, sim):
        # A delay-0 push from a callback fires in priority order among
        # the cycle's not-yet-dispatched events, and after equal ones.
        order = []

        def pusher():
            order.append(0)
            sim.schedule(0, lambda: order.append(20), priority=20)
            sim.schedule(0, lambda: order.append("30b"), priority=30)

        sim.schedule_at(5, pusher, priority=0)
        sim.schedule_at(5, lambda: order.append(10), priority=10)
        sim.schedule_at(5, lambda: order.append(30), priority=30)
        sim.run()
        assert order == [0, 10, 20, 30, "30b"]
        assert sim.now == 5


class TestStopAndFinalize:
    def test_request_stop_ends_run(self, sim):
        fired = []

        def stopper():
            fired.append(sim.now)
            sim.request_stop()

        sim.schedule(5, stopper)
        sim.schedule(10, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5]
        assert sim.pending_events == 1

    def test_finalizers_called_with_end_time(self, sim):
        seen = []
        sim.add_finalizer(lambda now: seen.append(now))
        sim.schedule(9, lambda: None)
        sim.run()
        assert seen == [9]

    def test_step_single_event(self, sim):
        fired = []
        sim.schedule(3, lambda: fired.append(1))
        sim.schedule(7, lambda: fired.append(2))
        assert sim.step() == 3
        assert fired == [1]
        assert sim.step() == 7
        assert sim.step() is None

    def test_stop_mid_cycle_resumes_same_cycle(self, sim):
        order = []

        def stopper():
            order.append("stop")
            sim.request_stop()

        sim.schedule_at(4, stopper, priority=0)
        sim.schedule_at(4, lambda: order.append("rest"), priority=10)
        sim.schedule_at(8, lambda: order.append("later"))
        assert sim.run() == 4
        assert order == ["stop"]
        assert sim.run() == 8
        assert order == ["stop", "rest", "later"]

    def test_run_reentry_rejected(self, sim):
        def evil():
            sim.run()

        sim.schedule(1, evil)
        with pytest.raises(SimulationError):
            sim.run()


class TestQueue:
    def test_events_live_in_the_heap(self):
        sim = Simulator()
        queue = getattr(sim._queue, "inner", sim._queue)  # unwrap sanitizer
        assert isinstance(queue, EventQueue)

    def test_constructor_takes_no_options(self):
        with pytest.raises(TypeError):
            Simulator(scheduler="heap")  # type: ignore[call-arg]
