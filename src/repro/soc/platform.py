"""Declarative SoC platform construction.

A :class:`PlatformConfig` fully describes an experiment system: the
clock, the interconnect, the DRAM channel, and one
:class:`MasterSpec` per actor (its workload, memory region, port
parameters and regulation).  :class:`Platform` turns the description
into live objects and runs it.

Keeping the description declarative is what lets benchmarks sweep a
parameter by rebuilding configs in a loop, with the guarantee that
nothing leaks between runs (every build creates a fresh simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.sim.config import ClockSpec
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder
from repro.axi.interconnect import Interconnect, InterconnectConfig
from repro.axi.port import MasterPort, PortConfig
from repro.dram.controller import DramConfig, DramController
from repro.probes.map import ProbeMap, build_probe_map
from repro.qos.manager import QosManager
from repro.regulation.base import BandwidthRegulator
from repro.regulation.factory import RegulatorSpec
from repro.soc.provision import RegulatorProvisioner
from repro.telemetry.log import get_logger
from repro.traffic.master import Master
from repro.traffic.workloads import make_workload

_log = get_logger(__name__)


@dataclass(frozen=True)
class MasterSpec:
    """One actor of the platform.

    Attributes:
        name: Unique master name.
        workload: Key into :data:`repro.traffic.workloads.WORKLOADS`.
        region_base: Start of the master's memory region.
        region_extent: Region size in bytes.
        work: Work bound (accesses for cpu workloads, bytes for accel
            workloads); ``None`` = unbounded background traffic.
        max_outstanding: AXI outstanding-transaction limit of the port.
        qos: Static AXI QoS stamped by the port (0..15).
        split_channels: Separate AR/AW queues at the port (see
            :class:`~repro.axi.port.PortConfig`).
        regulator: Regulation of this port (``None`` = unregulated).
        start_at: Cycle the master starts issuing.
        critical: Marks the actor whose completion/latency the
            experiment measures (used for early run termination and
            by result helpers).
    """

    name: str
    workload: str
    region_base: int
    region_extent: int
    work: Optional[int] = None
    max_outstanding: int = 8
    qos: int = 0
    split_channels: bool = False
    regulator: Optional[RegulatorSpec] = None
    start_at: int = 0
    critical: bool = False


@dataclass(frozen=True)
class PlatformConfig:
    """A complete system description.

    Attributes:
        masters: The actors sharing the memory system.
        clock: Reference clock (unit conversions only).
        interconnect: Fabric switch parameters.
        dram: Memory controller / device parameters.
        seed: Experiment seed for all stochastic components.
        trace_masters: Names whose completed transactions are traced.
    """

    masters: Sequence[MasterSpec] = field(default_factory=tuple)
    clock: ClockSpec = field(default_factory=ClockSpec)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    seed: int = 1
    trace_masters: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [m.name for m in self.masters]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate master names in {names}")

    def with_masters(self, masters: Sequence[MasterSpec]) -> "PlatformConfig":
        """Copy of this config with a different actor set."""
        return replace(self, masters=tuple(masters))

    def only(self, *names: str) -> "PlatformConfig":
        """Copy keeping only the named masters (solo baselines)."""
        keep = [m for m in self.masters if m.name in names]
        if len(keep) != len(names):
            missing = set(names) - {m.name for m in keep}
            raise ConfigError(f"unknown masters {sorted(missing)}")
        return self.with_masters(keep)

    @property
    def peak_bytes_per_cycle(self) -> float:
        """DRAM channel peak rate, the reference for shares."""
        return self.dram.timing.peak_bytes_per_cycle


class Platform:
    """Live system built from a :class:`PlatformConfig`."""

    def __init__(self, config: PlatformConfig) -> None:
        if not config.masters:
            raise ConfigError("platform needs at least one master")
        self.config = config
        self.sim = Simulator()
        self.trace = (
            TraceRecorder(config.trace_masters) if config.trace_masters else None
        )
        self.dram = DramController(self.sim, config.dram)
        self.interconnect = Interconnect(self.sim, config.interconnect)
        self.interconnect.attach_memory(self.dram)
        self.qos_manager = QosManager(self.sim, config.peak_bytes_per_cycle)
        self.ports: Dict[str, MasterPort] = {}
        self.regulators: Dict[str, BandwidthRegulator] = {}
        self.masters: Dict[str, Master] = {}
        #: Shared regulator resources (reclaim pool, PREM controller,
        #: TDMA frame, stagger state, work-conserving idle probe).
        self.provisioner = RegulatorProvisioner(
            self.sim,
            (m.regulator for m in config.masters),
            dram_idle_probe=lambda: self.dram.queue_depth == 0,
        )
        for spec in config.masters:
            self._build_master(spec)
        if self.prem_controller is not None:
            self._wire_prem_protection()
        #: The probe register file: every component's named live
        #: reads (see :mod:`repro.probes.map`).
        self.probes: ProbeMap = build_probe_map(self)
        _log.debug(
            "platform: %d masters, %d regulated, tracing %s",
            len(self.ports), len(self.regulators),
            list(config.trace_masters) or "off",
        )

    # ------------------------------------------------------------------
    # shared regulator resources (delegated to the provisioner)
    # ------------------------------------------------------------------
    @property
    def reclaim_pool(self):
        """Shared spare-budget pool for MemGuard reclaim."""
        return self.provisioner.reclaim_pool

    @property
    def prem_controller(self):
        """Shared PREM token controller (None when unused)."""
        return self.provisioner.prem_controller

    @property
    def tdma_schedule(self):
        """Shared TDMA frame (None when unused)."""
        return self.provisioner.tdma_schedule

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _wire_prem_protection(self) -> None:
        """PREM mutual exclusion: no regulated actor may start a
        memory access while any critical master's memory phase (a
        pending or in-flight transaction) is active."""
        critical_ports = [
            self.ports[m.name] for m in self.config.masters if m.critical
        ]
        if not critical_ports:
            return

        def protected_active() -> bool:
            return any(
                p.queue_depth > 0 or p.outstanding > 0
                for p in critical_ports
            )

        self.prem_controller.set_protected_probe(protected_active)

    def _build_master(self, spec: MasterSpec) -> None:
        regulator = self.provisioner.build(spec.regulator)
        port = MasterPort(
            self.sim,
            PortConfig(
                name=spec.name,
                max_outstanding=spec.max_outstanding,
                qos=spec.qos,
                split_channels=spec.split_channels,
            ),
            regulator=regulator,
            trace=self.trace,
        )
        self.interconnect.attach_port(port)
        master = make_workload(
            spec.workload,
            self.sim,
            port,
            base=spec.region_base,
            extent=spec.region_extent,
            seed=self.config.seed,
            work=spec.work,
        )
        self.ports[spec.name] = port
        self.masters[spec.name] = master
        if regulator is not None:
            self.regulators[spec.name] = regulator
            self.qos_manager.register(spec.name, regulator)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: int,
        stop_when_critical_done: bool = True,
    ) -> int:
        """Start all masters and run.

        Args:
            max_cycles: Simulation horizon.
            stop_when_critical_done: End the run as soon as every
                ``critical`` master finished its work (background
                hogs would otherwise keep the event queue alive to
                the horizon).

        Returns:
            The cycle at which the run ended.
        """
        if max_cycles < 1:
            raise ConfigError(f"max_cycles must be >= 1, got {max_cycles}")
        critical = [
            self.masters[m.name] for m in self.config.masters if m.critical
        ]
        if stop_when_critical_done and critical:
            remaining = {m.name for m in critical}

            def make_hook(name: str):
                def hook(_cycle: int) -> None:
                    remaining.discard(name)
                    if not remaining:
                        self.sim.request_stop()

                return hook

            for master in critical:
                master.on_finish = make_hook(master.name)
        for spec in self.config.masters:
            self.masters[spec.name].start(spec.start_at)
        return self.sim.run(until=max_cycles)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def master(self, name: str) -> Master:
        try:
            return self.masters[name]
        except KeyError:
            raise ConfigError(f"unknown master {name!r}") from None

    def port(self, name: str) -> MasterPort:
        try:
            return self.ports[name]
        except KeyError:
            raise ConfigError(f"unknown master {name!r}") from None

    @property
    def critical_names(self) -> List[str]:
        return [m.name for m in self.config.masters if m.critical]
