"""Runner batch telemetry reports.

The runner already accounts for what it did
(:class:`~repro.runner.parallel.RunnerStats`: cache hits, dedup,
executed count, wall time, per-spec timings).  This module freezes
one batch's accounting into a :class:`RunnerTelemetry` record and
writes it as a JSON report next to the results it describes, so a
sweep leaves behind *how it ran* alongside *what it computed* --
the record ``scripts/bench_smoke.py`` appends into
``BENCH_runner.json``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

#: Report format version.  3: drops the worker-pool fields (``mode``,
#: ``workers``, ``worker_source``, ``recovered``, ``fallback_reason``,
#: ``single_flight_waited``); every batch runs in process.
REPORT_SCHEMA = 3


@dataclass(frozen=True)
class RunnerTelemetry:
    """How one runner batch executed.

    Attributes:
        total: Specs requested.
        executed: Simulations actually performed.
        cache_hits: Specs satisfied from the on-disk cache.
        cache_misses: Cache lookups in this batch that found nothing.
        cache_poisoned: Corrupt/stale entries this batch discarded.
        deduped: Specs satisfied by an equal-hash batch sibling.
        wall_seconds: Wall-clock time of the whole batch.
        spec_seconds: Per-executed-spec simulation seconds, in
            execution order.
        utilization: Share of the batch's wall time spent simulating:
            ``sum(spec_seconds) / wall_seconds`` (the rest is hashing,
            cache I/O and summarising).
    """

    total: int
    executed: int
    cache_hits: int
    cache_misses: int
    cache_poisoned: int
    deduped: int
    wall_seconds: float
    spec_seconds: Tuple[float, ...] = field(default_factory=tuple)
    utilization: float = 0.0

    @classmethod
    def from_runner(cls, runner: "object") -> "RunnerTelemetry":
        """Snapshot a :class:`~repro.runner.parallel.ParallelRunner`'s
        most recent batch (``runner.last_stats``; the cache counts are
        the stats' per-batch deltas, not the cache's lifetime totals,
        so reports written after every batch stay disjoint)."""
        stats = runner.last_stats
        wall = getattr(stats, "wall_seconds", 0.0)
        spec_seconds = tuple(getattr(stats, "spec_seconds", ()))
        busy = sum(spec_seconds)
        return cls(
            total=stats.total,
            executed=stats.executed,
            cache_hits=stats.cache_hits,
            cache_misses=getattr(stats, "cache_misses", 0),
            cache_poisoned=getattr(stats, "cache_poisoned", 0),
            deduped=stats.deduped,
            wall_seconds=wall,
            spec_seconds=spec_seconds,
            utilization=(busy / wall) if wall > 0 else 0.0,
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable report payload (with schema tag)."""
        payload = asdict(self)
        payload["spec_seconds"] = list(self.spec_seconds)
        payload["schema"] = REPORT_SCHEMA
        return payload

    def write(self, path: str) -> str:
        """Write the report as pretty-printed JSON; returns ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
        return path


def write_runner_report(
    runner: "object", path: str, extra: Optional[Dict[str, object]] = None
) -> str:
    """One-call snapshot + write for benchmark scripts.

    ``extra`` entries (e.g. the experiment name or result file the
    report sits next to) are merged into the payload.
    """
    payload = RunnerTelemetry.from_runner(runner).to_dict()
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path
