"""Plain-data run results that survive the trip to disk.

:class:`~repro.soc.experiment.PlatformResult` holds the live platform
(ports, monitors, the simulator itself) and therefore cannot be
written to a cache.  :class:`RunSummary`
is the measured part promoted to a first-class dataclass: per-master
figures, DRAM figures, the QoS reconfiguration log, and (optionally)
the fine-grained monitor trace a spec requested.  It round-trips
through JSON byte-identically, which is what lets the determinism
tests assert that a cache hit equals a fresh run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.soc.experiment import DramResult, MasterResult, PlatformResult


@dataclass(frozen=True)
class RunSummary:
    """Everything a downstream analysis needs from one finished run.

    Attributes:
        elapsed: Cycle at which the run ended.
        masters: Per-master measured results by name.
        dram: Memory-controller results.
        critical_names: Names of the run's critical masters (kept so
            :meth:`critical` works without the live platform).
        reconfig_log: QoS reconfiguration events as plain dicts.
        monitor_bins: Dense per-bin byte counts of the spec's
            ``monitor_master`` over the completed bins of the run
            (None when no monitor was requested).
        monitor_bin_cycles: Bin width of :attr:`monitor_bins`.
    """

    elapsed: int
    masters: Dict[str, MasterResult]
    dram: DramResult
    critical_names: Tuple[str, ...] = ()
    reconfig_log: Tuple[Dict[str, Any], ...] = ()
    monitor_bins: Optional[Tuple[int, ...]] = None
    monitor_bin_cycles: Optional[int] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: PlatformResult,
        monitor_bins: Optional[Tuple[int, ...]] = None,
        monitor_bin_cycles: Optional[int] = None,
    ) -> "RunSummary":
        """Snapshot a live :class:`PlatformResult` into plain data."""
        platform = result.platform
        return cls(
            elapsed=result.elapsed,
            masters=dict(result.masters),
            dram=result.dram,
            critical_names=tuple(platform.critical_names),
            reconfig_log=tuple(
                {
                    "master": e.master,
                    "requested_at": e.requested_at,
                    "effective_at": e.effective_at,
                    "budget_bytes": e.budget_bytes,
                }
                for e in platform.qos_manager.log
            ),
            monitor_bins=monitor_bins,
            monitor_bin_cycles=monitor_bin_cycles,
        )

    # ------------------------------------------------------------------
    # accessors (mirror PlatformResult so analyses accept either)
    # ------------------------------------------------------------------
    def master(self, name: str) -> MasterResult:
        """Results of one master by name."""
        try:
            return self.masters[name]
        except KeyError:
            raise ConfigError(f"no results for master {name!r}") from None

    def critical(self) -> MasterResult:
        """Results of the (single) critical master."""
        if len(self.critical_names) != 1:
            raise ConfigError(
                "expected exactly one critical master, found "
                f"{list(self.critical_names)}"
            )
        return self.master(self.critical_names[0])

    def critical_runtime(self) -> int:
        """Completion time of the critical master's work quantum."""
        result = self.critical()
        if result.finished_at is None:
            raise ConfigError(
                f"critical master {result.name!r} did not finish; "
                "raise max_cycles"
            )
        return result.finished_at

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data encoding (JSON-able, reversible).

        The ``elapsed`` / ``masters`` / ``dram`` / ``reconfig_log``
        keys match the historical ``PlatformResult.to_dict`` layout.
        """
        data: Dict[str, Any] = {
            "elapsed": self.elapsed,
            "masters": {name: asdict(m) for name, m in self.masters.items()},
            "dram": asdict(self.dram),
            "critical_names": list(self.critical_names),
            "reconfig_log": [dict(e) for e in self.reconfig_log],
        }
        if self.monitor_bins is not None:
            data["monitor_bins"] = list(self.monitor_bins)
            data["monitor_bin_cycles"] = self.monitor_bin_cycles
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSummary":
        """Inverse of :meth:`to_dict`."""
        try:
            bins = data.get("monitor_bins")
            return cls(
                elapsed=data["elapsed"],
                masters={
                    name: MasterResult(**m)
                    for name, m in data["masters"].items()
                },
                dram=DramResult(**data["dram"]),
                critical_names=tuple(data.get("critical_names", ())),
                reconfig_log=tuple(
                    dict(e) for e in data.get("reconfig_log", ())
                ),
                monitor_bins=None if bins is None else tuple(bins),
                monitor_bin_cycles=data.get("monitor_bin_cycles"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed run summary data: {exc}") from exc

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSummary":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
