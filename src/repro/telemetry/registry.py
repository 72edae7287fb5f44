"""Counter, gauge and histogram handle classes (no longer used by the model).

Components count in their :class:`~repro.sim.stats.StatSet`, and the
platform's probe map (:mod:`repro.probes.map`) reads those counts by
name; the process-wide metrics registry these handles came from is
gone.  The three classes stay only because the benchmark's
outside-in tracer (``benchmarks/perf/tracer.py``) lists them among its
patched boundaries and fails to resolve a missing class.  Nothing in
``src/`` creates them, so they add no calls to a run.  The module
goes together with those boundary rows in the next change to the
benchmark.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

from repro.errors import ConfigError

Number = Union[int, float]

#: Frozen label encoding: sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (powers of two): wide enough
#: for cycle latencies and queue depths without per-metric tuning.
DEFAULT_BUCKETS = tuple(1 << i for i in range(1, 21))


class Counter:
    """A monotonically increasing tally handle."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (non-negative) to the counter."""
        self.value += amount

    def snapshot(self) -> Number:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Gauge:
    """A handle holding the latest value of some instantaneous signal."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount

    def snapshot(self) -> Number:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}{dict(self.labels)}={self.value})"


class Histogram:
    """A streaming histogram handle with fixed bucket upper bounds.

    Stores one count per bucket plus count/sum/max, so memory stays
    O(buckets) no matter how many samples are observed -- the same
    trade a hardware range-counter monitor makes
    (:class:`repro.monitor.histogram.LatencyHistogram`).
    """

    __slots__ = ("name", "labels", "bounds", "counts", "overflow",
                 "count", "total", "maximum")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        bounds: Sequence[Number] = DEFAULT_BUCKETS,
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigError(
                f"histogram {name!r}: bounds must be non-empty and ascending"
            )
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total: Number = 0
        self.maximum: Number = 0

    def observe(self, value: Number) -> None:
        """Fold one sample into its bucket."""
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value
        bounds = self.bounds
        # Linear scan: bucket lists are short and samples are small in
        # the common case, so this beats bisect's call overhead.
        for i, bound in enumerate(bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile_bound(self, pct: float) -> Number:
        """Upper bucket bound containing the ``pct`` percentile."""
        if not 0 < pct <= 100:
            raise ConfigError(f"percentile {pct} out of (0, 100]")
        if not self.count:
            return 0
        threshold = pct / 100.0 * self.count
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            if running >= threshold:
                return bound
        return self.maximum

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": float(self.mean),
            "max": float(self.maximum),
            "p50": float(self.percentile_bound(50)),
            "p99": float(self.percentile_bound(99)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}{dict(self.labels)}, n={self.count})"
