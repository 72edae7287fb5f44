"""Latency histograms with CDF export.

Log2-bucketed histograms mirror what a hardware latency monitor can
afford (a small bank of range counters) while still supporting the
latency-distribution figures (E4).  Exact percentiles, when needed,
come from :class:`repro.sim.stats.Sampler`; the histogram is the
compact streaming alternative.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ConfigError


class LatencyHistogram:
    """A power-of-two bucketed latency histogram.

    Bucket ``i`` counts samples in ``[2**i, 2**(i+1))``; bucket 0 also
    absorbs zero-latency samples.

    Args:
        max_exponent: Largest bucket exponent; samples at or above
            ``2**max_exponent`` fold into the last bucket.
    """

    def __init__(self, max_exponent: int = 20) -> None:
        if max_exponent < 1:
            raise ConfigError("max_exponent must be >= 1")
        self.max_exponent = max_exponent
        self._buckets = [0] * (max_exponent + 1)
        self._count = 0
        self._total = 0

    def record(self, latency: int) -> None:
        if latency < 0:
            raise ConfigError(f"negative latency {latency}")
        self._count += 1
        self._total += latency
        self._buckets[self._bucket_of(latency)] += 1

    def _bucket_of(self, latency: int) -> int:
        if latency < 1:
            return 0
        return min(latency.bit_length() - 1, self.max_exponent)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def buckets(self) -> List[Tuple[int, int]]:
        """``(bucket_floor, count)`` pairs for non-empty buckets."""
        return [
            (1 << i if i else 0, n) for i, n in enumerate(self._buckets) if n
        ]

    def cdf(self) -> List[Tuple[int, float]]:
        """``(latency_upper_bound, cumulative_fraction)`` pairs."""
        if not self._count:
            return []
        out: List[Tuple[int, float]] = []
        running = 0
        for i, n in enumerate(self._buckets):
            if not n and not running:
                continue
            running += n
            out.append(((1 << (i + 1)) - 1, running / self._count))
            if running == self._count:
                break
        return out

    def percentile_bound(self, pct: float) -> int:
        """Upper bound of the bucket containing the percentile.

        Conservative (rounds up to the bucket edge), matching what a
        hardware range-counter monitor can report.
        """
        if not 0 < pct <= 100:
            raise ConfigError(f"percentile {pct} out of (0, 100]")
        if not self._count:
            return 0
        threshold = pct / 100.0 * self._count
        running = 0
        for i, n in enumerate(self._buckets):
            running += n
            if running >= threshold:
                return (1 << (i + 1)) - 1
        return (1 << (self.max_exponent + 1)) - 1

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Return a new histogram combining both populations."""
        if other.max_exponent != self.max_exponent:
            raise ConfigError("cannot merge histograms of different shapes")
        merged = LatencyHistogram(self.max_exponent)
        merged._count = self._count + other._count
        merged._total = self._total + other._total
        merged._buckets = [a + b for a, b in zip(self._buckets, other._buckets)]
        return merged
