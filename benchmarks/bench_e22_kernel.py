"""E22 -- Simulation-kernel hot-path micro-benchmark.

Not a figure of the reproduced paper: this bench times the discrete-
event engine itself -- the binary heap of plain-tuple events and the
same-cycle dispatch fast path -- so kernel-level changes are *measured* rather than assumed.

The rates are a record, not a verdict: no assertion here depends on
wall-clock timing (a paired suite comparison, ``benchmarks/perf``, is
what judges performance).  The assertions that remain are
deterministic properties of the probes.

* ``scheduler_stress`` -- a classic hold model (pop one, reschedule at
  ``now + delay``) at a resident population of 128k events, far above
  any paper platform's tens of live events;
* ``push_pop``      -- raw churn (push all, then pop all);
* ``same_cycle``    -- many events per cycle through ``Simulator.run``;
  exercises the single-scan same-cycle fast path;
* ``platform``      -- a small end-to-end platform run (cycles/second),
  the figure that predicts benchmark-suite wall-clock.
"""

from __future__ import annotations

import random
import time

from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator
from repro.soc.experiment import run_experiment
from repro.soc.presets import zcu102

from benchmarks.common import report

STRESS_POPULATION = 131_072
STRESS_EVENTS = 200_000
PUSH_POP_EVENTS = 200_000
SAME_CYCLE_CYCLES = 2_000
SAME_CYCLE_PER_CYCLE = 100
PLATFORM_CPU_WORK = 2_000


def _bench_scheduler_stress():
    """Hold model: steady population, pop-one / push-one-later."""
    rng = random.Random(20230711)
    delays = [rng.randrange(1, 12) for _ in range(4096)]
    queue = EventQueue()
    for i in range(STRESS_POPULATION):
        queue.push(delays[i & 4095], 0, None)
    index = 0
    start = time.perf_counter()
    for _ in range(STRESS_EVENTS):
        now = queue.pop()[0]
        queue.push(now + delays[index & 4095], 0, None)
        index += 1
    elapsed = time.perf_counter() - start
    return STRESS_EVENTS / elapsed, {"population": STRESS_POPULATION}


def _bench_push_pop():
    queue = EventQueue()
    sink = []
    start = time.perf_counter()
    for i in range(PUSH_POP_EVENTS):
        queue.push(i, 0, sink.append)
    while len(queue):
        queue.pop()
    elapsed = time.perf_counter() - start
    return PUSH_POP_EVENTS / elapsed, {}


def _bench_same_cycle():
    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1

    for cycle in range(SAME_CYCLE_CYCLES):
        for _ in range(SAME_CYCLE_PER_CYCLE):
            sim.schedule_at(cycle, tick)
    total = SAME_CYCLE_CYCLES * SAME_CYCLE_PER_CYCLE
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert fired[0] == total
    return total / elapsed, {}


def _bench_platform():
    config = zcu102(num_accels=2, cpu_work=PLATFORM_CPU_WORK)
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    return result.elapsed / elapsed, {"sim_cycles": result.elapsed}


def run_e22():
    probes = (
        ("scheduler_stress", "events/s", _bench_scheduler_stress),
        ("push_pop", "events/s", _bench_push_pop),
        ("same_cycle", "events/s", _bench_same_cycle),
        ("platform", "cycles/s", _bench_platform),
    )
    rows = []
    for name, unit, fn in probes:
        rate, extra = fn()
        rows.append({"probe": name, "unit": unit, "rate": rate, **extra})
    return rows


def test_e22_kernel(benchmark):
    rows = benchmark.pedantic(run_e22, rounds=1, iterations=1)
    report(
        "e22_kernel",
        rows,
        "E22: simulation-kernel hot-path throughput, binary-heap event "
        f"queue ({STRESS_EVENTS // 1000}k-event probes)",
        columns=["probe", "unit", "rate", "population", "sim_cycles"],
    )
    by_probe = {r["probe"]: r for r in rows}
    assert by_probe["platform"]["sim_cycles"] > 0
