#!/usr/bin/env python
"""Runner smoke benchmark: the experiment engine's trajectory log.

Runs a fixed 8-point regulation sweep twice -- once in-process serial
and once through the process pool -- asserts both produce byte-identical
summaries, then times the kernel's scheduler-stress probe.  The
timings are appended to ``BENCH_runner.json`` so successive PRs
accumulate a performance trajectory for the experiment engine and the
simulation kernel under it.

Appended records carry ``schema: 9`` and a ``kind`` discriminator:

* ``runner_sweep``      -- serial vs process-pool wall time (plus, for
  serial fallbacks, the runner's ``fallback_reason``);
* ``kernel_throughput`` -- raw event-queue events/s at a 128k-event
  resident population (the E22 headline probe);
* ``runner_telemetry``  -- the pool run's execution report
  (:class:`repro.telemetry.RunnerTelemetry`: per-spec seconds,
  worker utilization, cache accounting), nested under ``telemetry``;
  since schema 6 the measured pool runs under an explicit
  ``max_workers="auto"`` (the runner's automatic resolution), so the
  trajectory tracks the real pool rather than a serial fallback;
* ``probe_overhead``    -- the live probe plane's cost (new in schema
  6): ABBA-paired wall times of the fixed hog scenario with a
  :class:`repro.probes.ProbeSampler` attached vs detached (the same
  harness ``scripts/check_probe_overhead.py`` gates CI with);
* ``runner_parallel``   -- the forced-parallel proof (schema 5):
  the automatically resolved worker count with its provenance
  (affinity mask / cgroup quota / ``REPRO_JOBS``), plus the same
  sweep under a forced ``REPRO_JOBS=2``, which must engage the pool
  (no ``max_workers=1`` fallback) and stay byte-identical to the
  serial rows -- this record backs the forced-parallel gate (see
  below).

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py [--out BENCH_runner.json]

Exit code 0 = all row sets identical AND the forced-parallel gate
holds (under ``REPRO_JOBS=2`` the runner must actually use the pool
and produce byte-identical rows).  The serial/pool speedup remains
reported, not asserted: CI boxes with one core legitimately see ~1x.

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

from repro.runner import ParallelRunner, RunSpec, resolve_workers  # noqa: E402
from repro.soc.presets import zcu102  # noqa: E402

#: Schema version stamped on every appended record.
SCHEMA = 9

#: ABBA rounds for the probe-overhead record (the CI gate uses its
#: own, stricter repeat count).
PROBE_REPEATS = 3

#: Worker count forced (via ``REPRO_JOBS``) for the parallel proof.
FORCED_JOBS = 2

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


def timed_run(max_workers):
    """Run the sweep uncached; return (rows-as-json, seconds, runner)."""
    runner = ParallelRunner(max_workers=max_workers, cache=None)
    start = time.perf_counter()
    summaries = runner.run(build_specs())
    elapsed = time.perf_counter() - start
    runner.close()
    return [s.to_json() for s in summaries], elapsed, runner


def forced_parallel_run():
    """The sweep under a forced ``REPRO_JOBS`` pool.

    Environment-driven on purpose: this exercises the same resolution
    path (`resolve_workers`) a user's ``REPRO_JOBS=N`` would, not the
    explicit-argument shortcut.
    """
    previous = os.environ.get("REPRO_JOBS")
    os.environ["REPRO_JOBS"] = str(FORCED_JOBS)
    try:
        runner = ParallelRunner(cache=None)
        start = time.perf_counter()
        summaries = runner.run(build_specs())
        elapsed = time.perf_counter() - start
        runner.close()
    finally:
        if previous is None:
            os.environ.pop("REPRO_JOBS", None)
        else:
            os.environ["REPRO_JOBS"] = previous
    return [s.to_json() for s in summaries], elapsed, runner.last_stats


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

    # One serial sweep, then the process pool.  The pool runs with an
    # explicit max_workers="auto" so the telemetry record measures the
    # runner's automatic worker resolution, not a serial fallback.
    serial_rows, serial_s, _ = timed_run(max_workers=1)
    parallel_rows, parallel_s, parallel_runner = timed_run(max_workers="auto")
    stats = parallel_runner.last_stats
    mode = stats.mode

    if serial_rows != parallel_rows:
        print("FAIL: serial and parallel summaries differ", file=sys.stderr)
        return 1

    workers = ParallelRunner().max_workers
    records = [
        {
            "schema": SCHEMA,
            "kind": "runner_sweep",
            "points": len(serial_rows),
            "workers": workers,
            "parallel_mode": mode,
            "fallback_reason": getattr(stats, "fallback_reason", None),
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
            "rows_identical": True,
            "timestamp": _timestamp(),
        },
    ]

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

    telemetry = RunnerTelemetry.from_runner(parallel_runner).to_dict()
    records.append(
        {
            "schema": SCHEMA,
            "kind": "runner_telemetry",
            "max_workers": "auto",
            "parallel_mode": mode,
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

    # The forced-parallel proof: REPRO_JOBS=2 must engage the pool on
    # any box (the auto path above may legitimately resolve to one
    # worker on a one-core runner) and must stay byte-identical.
    auto_workers, auto_source = resolve_workers()
    forced_rows, forced_s, forced_stats = forced_parallel_run()
    forced_identical = forced_rows == serial_rows
    forced_ok = forced_stats.mode == "parallel" and forced_identical
    records.append(
        {
            "schema": SCHEMA,
            "kind": "runner_parallel",
            "points": len(forced_rows),
            "forced_jobs": FORCED_JOBS,
            "mode": forced_stats.mode,
            "workers": forced_stats.workers,
            "worker_source": forced_stats.worker_source,
            "fallback_reason": forced_stats.fallback_reason,
            "recovered": forced_stats.recovered,
            "auto_workers": auto_workers,
            "auto_worker_source": auto_source,
            "forced_s": round(forced_s, 3),
            "serial_s": round(serial_s, 3),
            "forced_speedup": round(serial_s / forced_s, 3)
            if forced_s
            else None,
            "rows_identical": forced_identical,
            "gate_ok": forced_ok,
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

    sweep, kernel = records[:2]
    print(
        f"bench_smoke: {sweep['points']} points, "
        f"serial {sweep['serial_s']}s, "
        f"{mode} {sweep['parallel_s']}s (x{sweep['speedup']}, "
        f"{workers} workers)"
    )
    if sweep["fallback_reason"]:
        print(f"bench_smoke: pool fallback: {sweep['fallback_reason']}")
    print(f"bench_smoke: kernel stress {kernel['heap_events_s']} ev/s -> {out}")
    print(
        f"bench_smoke: pool utilization "
        f"{telemetry['utilization']:.0%} over {telemetry['workers']} workers "
        f"({telemetry['executed']} executed, "
        f"{telemetry['cache_hits']} cache hits)"
    )
    print(
        f"bench_smoke: probe overhead attached {attached_s:.3f}s vs "
        f"detached {detached_s:.3f}s at period {probe_period} "
        f"(x{probe_ratio:.3f} paired)"
    )
    print(
        f"bench_smoke: auto workers {auto_workers} via {auto_source}; "
        f"forced REPRO_JOBS={FORCED_JOBS} -> {forced_stats.mode}, "
        f"{forced_stats.workers} workers, {forced_s:.3f}s "
        f"(x{round(serial_s / forced_s, 3) if forced_s else '?'} vs serial)"
    )
    if not forced_ok:
        reason = (
            f"fell back to serial ({forced_stats.fallback_reason})"
            if forced_stats.mode != "parallel"
            else "produced non-identical rows"
        )
        print(
            f"FAIL: forced REPRO_JOBS={FORCED_JOBS} sweep {reason}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
