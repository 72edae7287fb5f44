"""One-call experiment execution and structured results.

:func:`run_experiment` builds a platform from a config, runs it, and
returns a :class:`PlatformResult` -- the uniform bundle every
benchmark consumes.  :func:`run_solo_baseline` reruns a single master
alone on the same system, the denominator of every slowdown figure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError
from repro.soc.platform import Platform, PlatformConfig

#: Default horizon: 4M fabric cycles = 16 ms at 250 MHz, enough for
#: every bounded workload in the benchmarks to complete.
DEFAULT_MAX_CYCLES = 4_000_000


@dataclass(frozen=True)
class MasterResult:
    """Measured behaviour of one master over the run.

    Attributes:
        name: Master name.
        completed: Completed transactions.
        bytes_moved: Total payload bytes completed.
        latency_mean / latency_p50 / latency_p95 / latency_p99 /
        latency_max: End-to-end transaction latency stats (cycles).
        queueing_mean: Mean address-acceptance delay (cycles).
        finished_at: Cycle the configured work finished (None for
            unbounded or unfinished masters).
        bandwidth_bytes_per_cycle: Bytes over the master's active
            interval (finish time if bounded, else the run's end).
        regulator_denials: Regulator denial episodes.  A denied head
            counts once, then parks until the regulator's
            ``denied_until`` or a credit release.  Arbitration passes
            during the park do not count.
    """

    name: str
    completed: int
    bytes_moved: int
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_max: float
    queueing_mean: float
    finished_at: Optional[int]
    bandwidth_bytes_per_cycle: float
    regulator_denials: int


@dataclass(frozen=True)
class DramResult:
    """Measured behaviour of the memory controller."""

    serviced: int
    bytes_moved: int
    utilization: float
    row_hit_rate: float
    refreshes: int


class PlatformResult:
    """Everything a benchmark needs from one run.

    Attributes:
        elapsed: Cycle at which the run ended.
        masters: Per-master results by name.
        dram: Memory-controller results.
        platform: The live platform (for monitors, traces, QoS logs).
    """

    def __init__(self, platform: Platform, elapsed: int) -> None:
        self.platform = platform
        self.elapsed = elapsed
        self.masters: Dict[str, MasterResult] = {}
        for name, port in platform.ports.items():
            # Infrastructure ports (e.g. a hierarchy bridge) have no
            # traffic-generating master of their own.
            master = platform.masters.get(name)
            latency = port.stats.sampler("latency")
            queueing = port.stats.sampler("queueing_delay")
            finished = master.finished_at if master is not None else None
            active = finished if finished else elapsed
            nbytes = port.stats.counter("bytes").value
            self.masters[name] = MasterResult(
                name=name,
                completed=port.stats.counter("completed").value,
                bytes_moved=nbytes,
                latency_mean=latency.mean,
                latency_p50=float(latency.percentile(50)),
                latency_p95=float(latency.percentile(95)),
                latency_p99=float(latency.percentile(99)),
                latency_max=float(latency.maximum),
                queueing_mean=queueing.mean,
                finished_at=finished,
                bandwidth_bytes_per_cycle=(nbytes / active if active else 0.0),
                regulator_denials=port.stats.counter("regulator_denials").value,
            )
        self.dram = DramResult(
            serviced=platform.dram.stats.counter("serviced").value,
            bytes_moved=platform.dram.stats.counter("bytes").value,
            utilization=platform.dram.utilization(elapsed) if elapsed else 0.0,
            row_hit_rate=platform.dram.row_hit_rate(),
            refreshes=platform.dram.stats.counter("refreshes").value,
        )

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    def master(self, name: str) -> MasterResult:
        try:
            return self.masters[name]
        except KeyError:
            raise ConfigError(f"no results for master {name!r}") from None

    def critical(self) -> MasterResult:
        """Results of the (single) critical master."""
        names = self.platform.critical_names
        if len(names) != 1:
            raise ConfigError(
                f"expected exactly one critical master, found {names}"
            )
        return self.master(names[0])

    def critical_runtime(self) -> int:
        """Completion time of the critical master's work quantum."""
        result = self.critical()
        if result.finished_at is None:
            raise ConfigError(
                f"critical master {result.name!r} did not finish; "
                "raise max_cycles"
            )
        return result.finished_at

    def bandwidth_gbps(self, name: str) -> float:
        """A master's average bandwidth in GB/s (preset clock)."""
        clock = self.platform.config.clock
        return clock.gbps_from_bytes_per_cycle(
            self.master(name).bandwidth_bytes_per_cycle
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def summary(self) -> "RunSummary":
        """Snapshot into a plain-data :class:`~repro.runner.summary.RunSummary`.

        The summary is JSON round-trippable, which is what the
        runner and the result cache move around; the
        live platform stays behind.
        """
        from repro.runner.summary import RunSummary

        return RunSummary.from_result(self)

    def to_dict(self) -> Dict[str, object]:
        """Plain-data summary of the run (JSON-serializable).

        Contains everything a downstream analysis needs -- per-master
        results, DRAM figures, the QoS reconfiguration log -- but not
        the live platform objects.  The layout is defined by
        :meth:`repro.runner.summary.RunSummary.to_dict`.
        """
        return self.summary().to_dict()

    def save_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path`` as pretty-printed JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @staticmethod
    def load_json(path: str) -> Dict[str, object]:
        """Load a summary previously written by :meth:`save_json`."""
        with open(path) as fh:
            return json.load(fh)


def run_experiment(
    config: PlatformConfig,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    stop_when_critical_done: bool = True,
) -> PlatformResult:
    """Build, run and measure a platform in one call."""
    platform = Platform(config)
    elapsed = platform.run(
        max_cycles, stop_when_critical_done=stop_when_critical_done
    )
    return PlatformResult(platform, elapsed)


def run_solo_baseline(
    config: PlatformConfig,
    master: str,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> PlatformResult:
    """Run one master alone on the same system (slowdown denominator).

    Any regulator configured for the master is kept, so "solo" means
    "no co-runners", not "no regulation".
    """
    solo = config.only(master)
    return run_experiment(solo, max_cycles=max_cycles)
