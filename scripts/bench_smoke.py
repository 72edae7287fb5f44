#!/usr/bin/env python
"""Runner smoke benchmark: the experiment engine's trajectory log.

Runs a fixed 8-point regulation sweep through the runner, times the
kernel's scheduler-stress probe, and measures the live probe plane's
overhead.  The records are appended to ``BENCH_runner.json`` so
successive changes accumulate a performance trajectory for the
experiment engine and the simulation kernel under it.

Appended records carry ``schema: 10`` and a ``kind`` discriminator:

* ``kernel_throughput`` -- raw event-queue events/s at a 128k-event
  resident population (the E22 headline probe);
* ``runner_telemetry``  -- the sweep's execution report
  (:class:`repro.telemetry.RunnerTelemetry`: per-spec seconds,
  cache accounting), nested under ``telemetry``;
* ``probe_overhead``    -- ABBA-paired wall times of the fixed hog
  scenario with a :class:`repro.probes.ProbeSampler` attached vs
  detached (the same harness ``scripts/check_probe_overhead.py``
  gates CI with).

Schema 10 drops the ``runner_sweep`` (serial vs process pool) and
``runner_parallel`` (forced two-worker pool) records: the runner has
no process pool any more.  Older records stay in the log as history.

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py [--out BENCH_runner.json]

A pre-existing ``--out`` file that cannot be parsed as a JSON list is
quarantined (renamed to ``<out>.corrupt-N``) and a fresh history is
started, so one corrupted write never silently discards the
trajectory nor blocks future appends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, ".."))

from repro.runner import ParallelRunner, RunSpec  # noqa: E402
from repro.soc.presets import zcu102  # noqa: E402

#: Schema version stamped on every appended record.
SCHEMA = 10

#: ABBA rounds for the probe-overhead record (the CI gate uses its
#: own, stricter repeat count).
PROBE_REPEATS = 3

#: The fixed 8-point grid: 4 shares x 2 windows, small critical work
#: so the whole smoke run stays in seconds.
SHARES = (0.05, 0.10, 0.20, 0.40)
WINDOWS = (256, 2048)
CPU_WORK = 1_000
HOGS = 2
PEAK = 16.0


def build_specs():
    """The fixed 8-point sweep, one spec per (share, window)."""
    from repro.regulation.factory import RegulatorSpec

    specs = []
    for share in SHARES:
        for window in WINDOWS:
            reg = RegulatorSpec(
                kind="tightly_coupled",
                window_cycles=window,
                budget_bytes=max(1, round(share * PEAK * window)),
            )
            specs.append(
                RunSpec(
                    config=zcu102(
                        num_accels=HOGS,
                        cpu_work=CPU_WORK,
                        accel_regulator=reg,
                    )
                )
            )
    return specs


def run_sweep():
    """Run the sweep uncached; the runner keeps the batch's stats."""
    runner = ParallelRunner(cache=None)
    runner.run(build_specs())
    return runner


def kernel_throughput():
    """The E22 scheduler-stress probe: event-queue events/s."""
    from benchmarks.bench_e22_kernel import (
        STRESS_POPULATION,
        _bench_scheduler_stress,
    )

    rate, _ = _bench_scheduler_stress()
    return rate, STRESS_POPULATION


def _timestamp():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def load_history(out):
    """Read the existing timing log, quarantining it when unreadable.

    Returns ``(history, quarantined)``: the parsed record list (empty
    when absent or quarantined) and the path the corrupt file was
    moved to (``None`` normally).  A file that exists but is not a
    JSON list -- a truncated write, a stray object, binary junk -- is
    renamed to the first free ``<out>.corrupt-N`` so the evidence
    survives while the trajectory restarts cleanly; silently
    overwriting it would destroy the very record someone needs to
    diagnose the corruption.
    """
    if not os.path.exists(out):
        return [], None
    try:
        with open(out) as fh:
            history = json.load(fh)
        if not isinstance(history, list):
            raise ValueError("top-level JSON is not a list")
        return history, None
    except (OSError, ValueError):
        quarantined = None
        for index in range(1, 1000):
            candidate = f"{out}.corrupt-{index}"
            if not os.path.exists(candidate):
                quarantined = candidate
                break
        if quarantined is not None:
            try:
                os.replace(out, quarantined)
            except OSError:
                # Even the rename failed (permissions, races): start
                # fresh anyway; the append below overwrites in place.
                quarantined = None
        return [], quarantined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=os.path.join(_HERE, "..", "BENCH_runner.json"),
        help="timing log to append to (JSON list)",
    )
    args = parser.parse_args(argv)

    runner = run_sweep()
    records = []

    rate, population = kernel_throughput()
    records.append(
        {
            "schema": SCHEMA,
            "kind": "kernel_throughput",
            "probe": "scheduler_stress",
            "population": population,
            "heap_events_s": round(rate),
            "timestamp": _timestamp(),
        }
    )

    from repro.telemetry import RunnerTelemetry

    telemetry = RunnerTelemetry.from_runner(runner).to_dict()
    records.append(
        {
            "schema": SCHEMA,
            "kind": "runner_telemetry",
            "telemetry": telemetry,
            "timestamp": _timestamp(),
        }
    )

    from repro.probes.sampler import resolve_probe_period
    from scripts.check_probe_overhead import measure_probe_overhead

    probe_period = resolve_probe_period()
    probe_ratio, attached_s, detached_s = measure_probe_overhead(
        repeats=PROBE_REPEATS, period=probe_period
    )
    records.append(
        {
            "schema": SCHEMA,
            "kind": "probe_overhead",
            "period": probe_period,
            "repeats": PROBE_REPEATS,
            "attached_s": round(attached_s, 3),
            "detached_s": round(detached_s, 3),
            "attached_vs_detached": round(probe_ratio, 3),
            "timestamp": _timestamp(),
        }
    )

    out = os.path.abspath(args.out)
    history, quarantined = load_history(out)
    if quarantined is not None:
        print(
            f"bench_smoke: existing {out} was not a readable JSON list; "
            f"quarantined to {quarantined}, starting a fresh history",
            file=sys.stderr,
        )
    history.extend(records)
    with open(out, "w") as fh:
        json.dump(history, fh, indent=2)

    kernel = records[0]
    print(
        f"bench_smoke: {telemetry['total']} points in "
        f"{telemetry['wall_seconds']:.3f}s "
        f"({telemetry['executed']} executed, "
        f"{telemetry['utilization']:.0%} of it simulating)"
    )
    print(f"bench_smoke: kernel stress {kernel['heap_events_s']} ev/s -> {out}")
    print(
        f"bench_smoke: probe overhead attached {attached_s:.3f}s vs "
        f"detached {detached_s:.3f}s at period {probe_period} "
        f"(x{probe_ratio:.3f} paired)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
