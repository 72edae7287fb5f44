"""Same-cycle batch dispatch: both dispatch loops, on both queues.

Events that share a cycle form a batch: :meth:`Simulator.run` pops
the first one with a full ``pop`` and drains the rest of the cycle
through the queue's ``pop_if_at`` fast path; the profiled twin
(``_run_profiled``, selected when a :class:`PhaseProfiler` is
attached) repeats that loop with timing brackets.  The two loops are
contractually bit-identical, and neither may order a batch differently
from the naive :class:`ReferenceQueue`.  These tests drive every
(queue, loop) pair -- and the sanitizer-wrapped heap -- with the same
randomized programs and compare full dispatch journals exactly, plus
targeted regressions for same-cycle pushes that must sort into the
undispatched rest of the batch.
"""

import random

import pytest

from repro.sim.kernel import Phase, Simulator
from repro.telemetry.profiler import PhaseProfiler
from tests.sim.reference_queue import ReferenceQueue

#: Queue implementations the simulator is driven on.
BACKENDS = ("heap", "reference")

#: Span of the "far future" delays in the randomized programs.
_FAR = 1024

PRIORITIES = (
    Phase.REGULATOR,
    Phase.MASTER,
    Phase.ARBITER,
    Phase.MEMORY,
    Phase.RESPONSE,
    Phase.MONITOR,
    Phase.STATS,
)


def _simulator(scheduler, profiled):
    sim = Simulator()
    if scheduler == "reference":
        sim._queue = ReferenceQueue()
    if profiled:
        PhaseProfiler().attach(sim)
    return sim


def _run_program(scheduler, profiled, seed, until=None, stop_after=None):
    """Drive a randomized cascading workload; return its journal.

    The workload mixes same-cycle pushes at arbitrary phases (which
    may sort before, into, or after the rest of the in-flight batch),
    future pushes, daemons, and an optional mid-run stop.
    """
    sim = _simulator(scheduler, profiled)
    rng = random.Random(seed)
    journal = []
    budget = [400]

    def work(tag):
        journal.append((sim.now, tag))
        if stop_after is not None and len(journal) >= stop_after:
            sim.request_stop()
            return
        if budget[0] <= 0:
            return
        budget[0] -= 1
        r = rng.random()
        if r < 0.40:
            # Same-cycle push at a random phase: sorts anywhere
            # relative to the batch's undispatched rest.
            sim.schedule(
                0, lambda: work(tag + 1), priority=rng.choice(PRIORITIES)
            )
        if rng.random() < 0.55:
            sim.schedule(
                rng.choice((1, 2, 3, rng.randrange(1, 2 * _FAR))),
                lambda: work(tag + 100),
                priority=rng.choice(PRIORITIES),
            )
        if rng.random() < 0.20:
            sim.schedule(
                rng.randrange(0, 12),
                lambda: work(-tag),
                priority=rng.choice(PRIORITIES),
            )

    # A dense opening cycle across phases, plus daemon background.
    for phase in PRIORITIES:
        sim.schedule(1, lambda p=phase: work(p), priority=phase)
    sim.schedule(
        2, lambda: journal.append((sim.now, "tick")), daemon=True
    )
    if until is not None:
        sim.run(until=until)
        journal.append(("bound", sim.now, sim.pending_events))
    sim.run()
    journal.append(("end", sim.now, sim.events_dispatched))
    return journal


@pytest.mark.parametrize("scheduler", BACKENDS)
@pytest.mark.parametrize("seed", range(8))
def test_randomized_programs_bit_identical(scheduler, seed):
    profiled = _run_program(scheduler, True, seed)
    plain = _run_program(scheduler, False, seed)
    assert profiled == plain


@pytest.mark.parametrize("seed", range(4))
def test_randomized_programs_identical_across_backends(seed):
    journals = {
        (sched, profiled): _run_program(sched, profiled, seed)
        for sched in BACKENDS
        for profiled in (True, False)
    }
    reference = journals[("reference", False)]
    for key, journal in journals.items():
        assert journal == reference, key


@pytest.mark.parametrize("scheduler", BACKENDS)
@pytest.mark.parametrize("seed", range(4))
def test_randomized_programs_with_sanitizer(scheduler, seed, monkeypatch):
    """The sanitizer wraps the kernel's heap; its journal must match
    an unsanitized run on each queue."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = _run_program("heap", False, seed)
    monkeypatch.delenv("REPRO_SANITIZE")
    assert sanitized == _run_program(scheduler, False, seed)


@pytest.mark.parametrize("scheduler", BACKENDS)
@pytest.mark.parametrize("seed", range(4))
def test_bounded_and_stopped_runs_bit_identical(scheduler, seed):
    assert _run_program(scheduler, True, seed, until=9) == _run_program(
        scheduler, False, seed, until=9
    )
    assert _run_program(scheduler, True, seed, stop_after=25) == _run_program(
        scheduler, False, seed, stop_after=25
    )


class TestDirtyGuard:
    """Same-cycle pushes that must interleave into the batch's rest."""

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_push_into_middle_of_tail(self, scheduler):
        # During the priority-0 callback, push priority 20 while the
        # undispatched rest is [10, 30]: the push sorts *between* the
        # remaining entries.
        def drive(profiled):
            sim = _simulator(scheduler, profiled)
            order = []

            def pusher():
                order.append(0)
                sim.schedule(0, lambda: order.append(20), priority=20)

            sim.schedule_at(5, pusher, priority=0)
            sim.schedule_at(5, lambda: order.append(10), priority=10)
            sim.schedule_at(5, lambda: order.append(30), priority=30)
            sim.run()
            return order

        assert drive(True) == drive(False) == [0, 10, 20, 30]

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_push_before_whole_tail(self, scheduler):
        def drive(profiled):
            sim = _simulator(scheduler, profiled)
            order = []

            def pusher():
                order.append("reg")
                sim.schedule(0, lambda: order.append("mast2"), priority=10)

            sim.schedule_at(3, pusher, priority=Phase.REGULATOR)
            sim.schedule_at(3, lambda: order.append("arb"), priority=20)
            sim.schedule_at(3, lambda: order.append("stats"), priority=90)
            sim.run()
            return order

        assert drive(True) == drive(False) == ["reg", "mast2", "arb", "stats"]

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_push_after_tail_is_not_dirty_but_still_fires(self, scheduler):
        # Equal/higher priority sorts after every remaining entry (new
        # seq), but the event still fires within the same cycle.
        def drive(profiled):
            sim = _simulator(scheduler, profiled)
            order = []

            def pusher():
                order.append("a")
                sim.schedule(0, lambda: order.append("late"), priority=90)

            sim.schedule_at(7, pusher, priority=10)
            sim.schedule_at(7, lambda: order.append("b"), priority=90)
            sim.run()
            return order, sim.now

        assert drive(True) == drive(False) == (["a", "b", "late"], 7)
