"""Statistics primitives shared by every subsystem.

Three collector flavours cover all the measurements the benchmarks
need:

* :class:`Counter` -- a monotonically increasing tally (bytes, beats,
  transactions, stall cycles).
* :class:`Sampler` -- a value population with mean / percentile
  queries (transaction latencies).
* :class:`TimeSeries` -- values bucketed into fixed-width time bins
  (per-window bandwidth).

A :class:`StatSet` groups named collectors per component.  It is the
one place a component counts: :class:`~repro.soc.experiment.PlatformResult`
reads its collectors after a run, and the probe map
(:mod:`repro.probes.map`) registers each of its counters as a named
probe.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Union

from repro.errors import SimulationError

Number = Union[int, float]


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: Number = 1) -> None:
        if amount < 0:
            raise SimulationError(f"counter {self.name!r} decremented by {amount}")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Sampler:
    """A population of samples with summary-statistic queries.

    Stores every sample; the workloads in this package produce at most
    a few hundred thousand samples per run, which is cheap to keep and
    makes exact percentiles possible.
    """

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[Number] = []
        self._sorted = True

    def record(self, value: Number) -> None:
        self._samples.append(value)
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> Number:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    @property
    def minimum(self) -> Number:
        if not self._samples:
            return 0
        return min(self._samples)

    @property
    def maximum(self) -> Number:
        if not self._samples:
            return 0
        return max(self._samples)

    @property
    def stdev(self) -> float:
        n = len(self._samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((s - mu) ** 2 for s in self._samples) / (n - 1))

    def percentile(self, pct: float) -> Number:
        """Exact percentile via the nearest-rank method.

        Args:
            pct: Percentile in [0, 100].
        """
        if not 0 <= pct <= 100:
            raise SimulationError(f"percentile {pct} out of [0, 100]")
        if not self._samples:
            return 0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(1, math.ceil(pct / 100.0 * len(self._samples)))
        return self._samples[rank - 1]

    def values(self) -> List[Number]:
        """Return a copy of the raw samples (insertion order not kept)."""
        return list(self._samples)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": float(self.mean),
            "min": float(self.minimum),
            "max": float(self.maximum),
            "p50": float(self.percentile(50)),
            "p95": float(self.percentile(95)),
            "p99": float(self.percentile(99)),
        }


class TimeSeries:
    """Values accumulated into fixed-width time bins.

    Used for per-window bandwidth traces: ``add(now, nbytes)`` folds
    the contribution into bin ``now // bin_width``.

    Bins are a dense array indexed by bin number (simulation time is
    non-negative and mostly advances monotonically, so the array stays
    compact and the hot ``add`` path is an index-and-add instead of a
    dict hash/lookup).  A plain list is used rather than the ``array``
    module so integer byte counts stay exact integers in reports
    instead of being coerced to a fixed C type.
    """

    __slots__ = ("name", "bin_width", "_bins")

    def __init__(self, name: str, bin_width: int) -> None:
        if bin_width <= 0:
            raise SimulationError(f"bin width must be positive, got {bin_width}")
        self.name = name
        self.bin_width = bin_width
        self._bins: List[Number] = []

    def add(self, time: int, value: Number) -> None:
        index = time // self.bin_width
        bins = self._bins
        if index < len(bins):
            bins[index] += value
            return
        if index < 0:
            raise SimulationError(
                f"time series {self.name!r}: negative time {time}"
            )
        if index > len(bins):
            bins.extend([0] * (index - len(bins)))
        bins.append(value)

    def bins(self, first: int = 0, last: Optional[int] = None) -> List[Number]:
        """Densely materialized bin values over ``[first, last]``.

        Args:
            first: First bin index.
            last: Last bin index (defaults to the highest touched bin).
        """
        bins = self._bins
        if not bins:
            return []
        if last is None:
            last = len(bins) - 1
        count = len(bins)
        return [bins[i] if 0 <= i < count else 0 for i in range(first, last + 1)]

    def max_bin(self) -> Number:
        return max(self._bins) if self._bins else 0

    def last_bin(self) -> Number:
        """Value of the most recently touched bin (0 before any add)."""
        return self._bins[-1] if self._bins else 0

    def total(self) -> Number:
        return sum(self._bins)


class StatSet:
    """A named group of collectors belonging to one component."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._counters: Dict[str, Counter] = {}
        self._samplers: Dict[str, Sampler] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(f"{self.owner}.{name}")
        return self._counters[name]

    def sampler(self, name: str) -> Sampler:
        if name not in self._samplers:
            self._samplers[name] = Sampler(f"{self.owner}.{name}")
        return self._samplers[name]

    def series(self, name: str, bin_width: int) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(f"{self.owner}.{name}", bin_width)
        return self._series[name]

    def counters(self) -> Dict[str, Counter]:
        """Name -> counter of every counter created so far, in
        creation order."""
        return dict(self._counters)
