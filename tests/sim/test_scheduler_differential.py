"""Differential tests: the kernel's heap against a naive reference queue.

:class:`EventQueue` keeps a binary heap of plain tuples with a
same-cycle ``pop_if_at`` fast path.  Neither may change dispatch order: for any sequence of queue
operations the heap must dispatch the same events in the same order
as :class:`ReferenceQueue` (an unsorted list scanned for the minimum),
and any experiment must produce byte-identical result tables on
either queue.  These tests drive both with the same randomized
programs and full (scaled-down) experiments and compare outputs
exactly -- no tolerances.
"""

import random

import pytest

from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator

from benchmarks.common import loaded_config, tc_spec
from repro.soc.experiment import run_experiment
from tests.sim.reference_queue import ReferenceQueue, use_queue

#: Span of the "far future" delays in the randomized programs.
_FAR = 1024


def _random_program(seed, steps):
    """A queue-agnostic op script exercising the full queue surface.

    Times mix same-cycle bursts, near-future delays, far jumps and
    (via pop-then-push-low patterns) rewinds; ops mix pushes, daemon
    pushes, pops and peeks.
    """
    rng = random.Random(seed)
    program = []
    for _ in range(steps):
        r = rng.random()
        if r < 0.60:
            kind = "push_daemon" if rng.random() < 0.15 else "push"
            delay = rng.choice(
                (0, 0, 1, 2, 3, rng.randrange(64), rng.randrange(3 * _FAR))
            )
            program.append((kind, delay, rng.randrange(8)))
        elif r < 0.95:
            program.append(("pop", 0, 0))
        else:
            program.append(("peek", 0, 0))
    return program


def _execute(queue, program):
    """Run a program; return the dispatch trace and final state."""
    trace = []
    base = 0  # advances with dispatched times, so pushes stay relative
    for kind, arg, priority in program:
        if kind in ("push", "push_daemon"):
            queue.push(
                base + arg, priority, lambda: None, daemon=kind == "push_daemon"
            )
        elif kind == "pop":
            if queue.peek_time() is not None:
                time, priority, seq, _, daemon = queue.pop()
                trace.append((time, priority, seq, daemon))
                base = time
        elif kind == "peek":
            trace.append(("peek", queue.peek_time()))
    # Drain what's left so tail-end ordering is compared too.
    while queue.peek_time() is not None:
        time, priority, seq, _, daemon = queue.pop()
        trace.append((time, priority, seq, daemon))
    trace.append(("live", queue.live_foreground))
    return trace


@pytest.mark.parametrize("seed", range(12))
def test_randomized_programs_dispatch_identically(seed):
    program = _random_program(seed, steps=400)
    heap_trace = _execute(EventQueue(), program)
    reference_trace = _execute(ReferenceQueue(), program)
    assert heap_trace == reference_trace


@pytest.mark.parametrize("seed", range(6))
def test_below_cursor_pushes_dispatch_identically(seed):
    """Rewind-heavy program: pops advance the time, then pushes land
    below it (legal for direct queue users)."""
    traces = [[], []]
    for queue, trace in ((EventQueue(), traces[0]), (ReferenceQueue(), traces[1])):
        rng_q = random.Random(2000 + seed)  # same stream per queue
        queue.push(5 * _FAR, 0, lambda: None)
        assert queue.peek_time() == 5 * _FAR
        for _ in range(200):
            t = rng_q.randrange(6 * _FAR)
            queue.push(t, rng_q.randrange(4), lambda: None)
            if rng_q.random() < 0.5 and queue.live_foreground:
                trace.append(queue.pop()[:3])
        while queue.live_foreground:
            trace.append(queue.pop()[:3])
    assert traces[0] == traces[1]


def test_simulator_runs_identically_across_backends():
    """A kernel-level workload (cascading callbacks, daemons, bounded
    runs) observed through fired-event journals."""

    def drive(reference):
        sim = Simulator()
        if reference:
            sim._queue = ReferenceQueue()
        journal = []
        rng = random.Random(77)

        def work(tag):
            journal.append((sim.now, tag))
            if rng.random() < 0.6:
                sim.schedule(rng.randrange(4), lambda: work(tag + 1))
            if rng.random() < 0.3:
                sim.schedule(rng.randrange(90), lambda: work(-tag))

        sim.schedule(0, lambda: work(1), daemon=False)
        sim.schedule(3, lambda: journal.append((sim.now, "tick")), daemon=True)
        sim.run(until=40)
        journal.append(("now", sim.now))
        sim.schedule(2, lambda: work(1000))
        sim.run()
        journal.append(("end", sim.now, sim.events_dispatched))
        return journal

    assert drive(reference=False) == drive(reference=True)


@pytest.mark.parametrize(
    "share,window", [(0.10, 256), (0.20, 2048)]
)
def test_experiment_tables_byte_identical(share, window, monkeypatch):
    """Reduced-scale E2/E3-style runs: the full regulated-platform
    summary (per-master bytes, latencies, violation counts -- the
    numbers the paper's tables are built from) must serialize to the
    exact same JSON on the heap and on the reference queue."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def table():
        config = loaded_config(
            num_accels=2,
            cpu_work=400,
            accel_regulator=tc_spec(share, window_cycles=window),
        )
        return run_experiment(config).summary().to_json()

    heap = table()
    use_queue(monkeypatch, "reference")
    assert isinstance(Simulator()._queue, ReferenceQueue)
    assert table() == heap
