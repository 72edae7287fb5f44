"""Run batches of independent specs in process, with dedup and caching.

Simulation runs share nothing (every :class:`Platform` builds a fresh
simulator), so a batch of :class:`RunSpec` objects is a plain loop
over :func:`execute_spec`.  :class:`ParallelRunner` wraps that loop
with the two things a benchmark suite needs on top of it:

* **dedup** -- specs with equal content hashes are simulated once per
  batch (a sweep that re-states its solo baseline pays for it once);
* **caching** -- an optional :class:`ResultCache` is consulted before
  and fed after execution, so repeated suites cost zero simulations.

Results always come back in spec order.  The class keeps its name
because external profiling tools resolve ``ParallelRunner.run`` by
name; everything runs in the calling process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.monitor.window import WindowedBandwidthMonitor
from repro.probes.flightrec import FlightRecorder
from repro.probes.sampler import ProbeSampler
from repro.runner.cache import ResultCache
from repro.runner.spec import RunSpec
from repro.runner.summary import RunSummary
from repro.soc.experiment import PlatformResult
from repro.soc.platform import Platform


def _attach_flight_recorder(platform: Platform, spec: RunSpec) -> None:
    """Arm the SLO flight recorder when ``REPRO_SLO`` asks for one.

    Samplers are observers only (daemon ticks, pure reads), so runs
    stay bit-identical attached or detached; without ``REPRO_SLO`` no
    sampler is built at all and the run pays zero observation cost.
    """
    recorder = FlightRecorder.from_env()
    if recorder is None:
        return
    sampler = ProbeSampler(platform.sim, platform.probes)
    recorder.context.setdefault("spec", spec.content_hash())
    recorder.arm(sampler)
    sampler.attach()


def execute_spec(spec: RunSpec) -> RunSummary:
    """Run one spec to completion, in this process."""
    platform = Platform(spec.config)
    monitor = None
    if spec.monitor_master is not None:
        monitor = WindowedBandwidthMonitor(
            platform.port(spec.monitor_master), spec.monitor_bin_cycles
        )
    _attach_flight_recorder(platform, spec)
    elapsed = platform.run(
        spec.max_cycles,
        stop_when_critical_done=spec.stop_when_critical_done,
    )
    result = PlatformResult(platform, elapsed)
    bins: Optional[tuple] = None
    if monitor is not None:
        horizon = (elapsed // spec.monitor_bin_cycles) * spec.monitor_bin_cycles
        bins = (
            tuple(monitor.window_bytes(horizon)) if horizon else ()
        )
    return RunSummary.from_result(
        result,
        monitor_bins=bins,
        monitor_bin_cycles=(
            spec.monitor_bin_cycles if monitor is not None else None
        ),
    )


@dataclass
class RunnerStats:
    """Execution accounting for one :meth:`ParallelRunner.run` batch.

    Attributes:
        total: Specs requested.
        cache_hits: Satisfied from the result cache.
        cache_misses: Cache lookups in this batch that found nothing
            (delta of the cache's lifetime counter, so a report per
            batch never re-attributes earlier batches' misses).
        cache_poisoned: Corrupt/stale entries this batch discarded.
        deduped: Satisfied by another spec in the same batch with an
            equal content hash.
        executed: Simulations actually performed.
        wall_seconds: End-to-end wall time of the batch (cache
            lookups included).
        spec_seconds: Per-executed-spec simulation seconds, in
            execution order (batch order after dedup and cache hits).
    """

    total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_poisoned: int = 0
    deduped: int = 0
    executed: int = 0
    wall_seconds: float = 0.0
    spec_seconds: List[float] = field(default_factory=list)


class ParallelRunner:
    """Run batches of :class:`RunSpec` with dedup and caching.

    Args:
        cache: Optional on-disk result cache (see
            :meth:`ResultCache.from_env`); ``None`` disables caching.
    """

    def __init__(self, cache: Optional[ResultCache] = None) -> None:
        self.cache = cache
        #: Accounting of the most recent :meth:`run` call.
        self.last_stats = RunnerStats()

    def run(self, specs: Sequence[RunSpec]) -> List[RunSummary]:
        """Execute every spec; results are returned in spec order.

        Identical specs (equal content hashes) are simulated once and
        their summary shared; cached specs are not simulated at all.
        """
        stats = RunnerStats(total=len(specs))
        self.last_stats = stats
        if not specs:
            return []
        batch_start = time.perf_counter()
        cache = self.cache
        misses_before = cache.misses if cache is not None else 0
        poisoned_before = cache.poisoned if cache is not None else 0

        by_hash: Dict[str, RunSummary] = {}
        hashes = [spec.content_hash() for spec in specs]
        todo: List[RunSpec] = []
        todo_hashes: List[str] = []
        seen = set()
        for spec, digest in zip(specs, hashes):
            if digest in seen:
                stats.deduped += 1
                continue
            seen.add(digest)
            if cache is not None:
                cached = cache.get(spec)
                if cached is not None:
                    by_hash[digest] = cached
                    stats.cache_hits += 1
                    continue
            todo.append(spec)
            todo_hashes.append(digest)

        if cache is not None:
            stats.cache_misses = cache.misses - misses_before
            stats.cache_poisoned = cache.poisoned - poisoned_before

        for spec, digest in zip(todo, todo_hashes):
            start = time.perf_counter()
            summary = execute_spec(spec)
            stats.spec_seconds.append(time.perf_counter() - start)
            by_hash[digest] = summary
            if cache is not None:
                cache.put(spec, summary)
        stats.executed = len(todo)

        stats.wall_seconds = time.perf_counter() - batch_start
        return [by_hash[digest] for digest in hashes]
