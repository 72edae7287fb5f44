"""Serializable run descriptions with stable content hashes.

A :class:`RunSpec` captures everything that determines a run's outcome
-- the declarative :class:`~repro.soc.platform.PlatformConfig`, the
horizon, the stop condition, and any passive fine-grained monitor --
and nothing that does not (no live objects).  Because the simulator is
deterministic, two specs with equal content hashes produce identical
results, which is what makes the hash a safe cache key.

The hash is computed over the canonical JSON encoding of the spec
(sorted keys, no whitespace), so it is stable across processes,
Python versions with different ``hash()`` salts, and field ordering.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigError
from repro.sim.config import ClockSpec
from repro.axi.interconnect import InterconnectConfig
from repro.dram.address_map import AddressMap
from repro.dram.controller import DramConfig
from repro.dram.timing import DramTiming
from repro.regulation.factory import RegulatorSpec
from repro.soc.platform import MasterSpec, PlatformConfig

#: Bump when the spec encoding or the simulator's observable behaviour
#: changes incompatibly; it is folded into every content hash so stale
#: cache entries can never be mistaken for current results.
SPEC_SCHEMA = 1

#: Default horizon, mirrored from
#: :data:`repro.soc.experiment.DEFAULT_MAX_CYCLES` (not imported to
#: keep this module's import graph config-only).
_DEFAULT_MAX_CYCLES = 4_000_000


def config_to_dict(config: PlatformConfig) -> Dict[str, Any]:
    """Encode a :class:`PlatformConfig` as plain JSON-able data."""
    return asdict(config)


def config_from_dict(data: Dict[str, Any]) -> PlatformConfig:
    """Rebuild a :class:`PlatformConfig` from :func:`config_to_dict` output."""
    try:
        dram = data["dram"]
        masters = []
        for m in data["masters"]:
            kwargs = dict(m)
            regulator = kwargs.pop("regulator", None)
            if regulator is not None:
                regulator = RegulatorSpec(**regulator)
            masters.append(MasterSpec(regulator=regulator, **kwargs))
        return PlatformConfig(
            masters=tuple(masters),
            clock=ClockSpec(**data["clock"]),
            interconnect=InterconnectConfig(**data["interconnect"]),
            dram=DramConfig(
                timing=DramTiming(**dram["timing"]),
                address_map=AddressMap(**dram["address_map"]),
                **{
                    k: v
                    for k, v in dram.items()
                    if k not in ("timing", "address_map")
                },
            ),
            seed=data["seed"],
            trace_masters=tuple(data.get("trace_masters", ())),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed platform config data: {exc}") from exc


@dataclass(frozen=True)
class RunSpec:
    """A complete, serializable description of one simulation run.

    Attributes:
        config: The declarative platform description.
        max_cycles: Simulation horizon.
        stop_when_critical_done: End the run once every critical
            master finished (matches
            :meth:`repro.soc.platform.Platform.run`).
        monitor_master: Optionally attach a passive
            :class:`~repro.monitor.window.WindowedBandwidthMonitor`
            to this master's port; its per-bin byte counts land in
            :attr:`RunSummary.monitor_bins`.
        monitor_bin_cycles: Bin width of that monitor.
    """

    config: PlatformConfig
    max_cycles: int = _DEFAULT_MAX_CYCLES
    stop_when_critical_done: bool = True
    monitor_master: Optional[str] = None
    monitor_bin_cycles: int = 1024

    def __post_init__(self) -> None:
        if self.max_cycles < 1:
            raise ConfigError(f"max_cycles must be >= 1, got {self.max_cycles}")
        if self.monitor_bin_cycles < 1:
            raise ConfigError(
                f"monitor_bin_cycles must be >= 1, got {self.monitor_bin_cycles}"
            )
        if self.monitor_master is not None:
            names = {m.name for m in self.config.masters}
            if self.monitor_master not in names:
                raise ConfigError(
                    f"monitor_master {self.monitor_master!r} not in {sorted(names)}"
                )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data encoding (JSON-able, reversible)."""
        return {
            "schema": SPEC_SCHEMA,
            "config": config_to_dict(self.config),
            "max_cycles": self.max_cycles,
            "stop_when_critical_done": self.stop_when_critical_done,
            "monitor_master": self.monitor_master,
            "monitor_bin_cycles": self.monitor_bin_cycles,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`."""
        if data.get("schema") != SPEC_SCHEMA:
            raise ConfigError(
                f"unsupported spec schema {data.get('schema')!r} "
                f"(expected {SPEC_SCHEMA})"
            )
        return cls(
            config=config_from_dict(data["config"]),
            max_cycles=data["max_cycles"],
            stop_when_critical_done=data["stop_when_critical_done"],
            monitor_master=data.get("monitor_master"),
            monitor_bin_cycles=data.get("monitor_bin_cycles", 1024),
        )

    def content_hash(self) -> str:
        """Stable hex digest identifying this run's full input.

        Equal hashes imply identical simulation outcomes (the engine
        is deterministic), so the hash doubles as the result-cache
        key and the dedup key for repeated specs in one batch.

        The digest is computed once per spec and memoised: the spec
        and every config it holds are frozen, so it cannot go stale.
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            canonical = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_hash", digest)
        return digest
