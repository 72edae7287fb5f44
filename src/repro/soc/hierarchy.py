"""Two-level (fabric + PS) platform assembly.

Models the real topology of the evaluation board: CPU masters sit
directly on the PS-level interconnect in front of the DDR controller,
while FPGA accelerators share a fabric-level switch whose single
egress -- an HP port with its own outstanding limit -- bridges into
the PS level.

This is the topology where the *placement* of regulation matters
(experiment E11): per-master IPs on the fabric ports isolate
accelerators from each other as well as from the CPUs; a single
aggregate regulator at the HP port bounds the total but lets one
misbehaving accelerator starve its fabric neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.errors import ConfigError
from repro.sim.config import ClockSpec
from repro.sim.kernel import Simulator
from repro.axi.bridge import Bridge
from repro.axi.interconnect import Interconnect, InterconnectConfig
from repro.axi.port import MasterPort, PortConfig
from repro.dram.controller import DramConfig, DramController
from repro.qos.manager import QosManager
from repro.regulation.factory import RegulatorSpec
from repro.soc.platform import MasterSpec
from repro.soc.provision import RegulatorProvisioner
from repro.traffic.master import Master
from repro.traffic.workloads import make_workload


@dataclass(frozen=True)
class TwoLevelConfig:
    """A complete two-level system description.

    Attributes:
        cpus: Masters attached directly at the PS level.
        accels: Masters attached to the fabric-level switch.
        bridge_name: Name of the shared HP port.
        bridge_outstanding: The HP port's outstanding limit (the
            Zynq HP ports accept a handful of outstanding reads).
        bridge_regulator: Optional *aggregate* regulator at the HP
            port (the coarse-grained placement E11 contrasts).
        fabric / ps: The two switch configurations.
        dram: Memory controller configuration.
        clock: Reference clock.
        seed: Experiment seed.
    """

    cpus: Sequence[MasterSpec] = field(default_factory=tuple)
    accels: Sequence[MasterSpec] = field(default_factory=tuple)
    bridge_name: str = "hp0"
    bridge_outstanding: int = 16
    bridge_regulator: Optional[RegulatorSpec] = None
    fabric: InterconnectConfig = field(default_factory=InterconnectConfig)
    ps: InterconnectConfig = field(default_factory=InterconnectConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    clock: ClockSpec = field(default_factory=ClockSpec)
    seed: int = 1

    def __post_init__(self) -> None:
        names = [m.name for m in self.cpus] + [m.name for m in self.accels]
        names.append(self.bridge_name)
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate master names in {sorted(names)}")
        if not self.cpus and not self.accels:
            raise ConfigError("two-level platform needs at least one master")
        if self.bridge_outstanding < 1:
            raise ConfigError("bridge_outstanding must be >= 1")

    @property
    def peak_bytes_per_cycle(self) -> float:
        return self.dram.timing.peak_bytes_per_cycle


class TwoLevelPlatform:
    """Live two-level system built from a :class:`TwoLevelConfig`."""

    def __init__(self, config: TwoLevelConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.dram = DramController(self.sim, config.dram)
        self.ps = Interconnect(self.sim, config.ps)
        self.ps.attach_memory(self.dram)
        self.fabric = Interconnect(self.sim, config.fabric)
        self.qos_manager = QosManager(self.sim, config.peak_bytes_per_cycle)
        self.ports: Dict[str, MasterPort] = {}
        self.masters: Dict[str, Master] = {}
        self.regulators: Dict[str, object] = {}
        all_specs = (
            [m.regulator for m in config.cpus]
            + [m.regulator for m in config.accels]
            + [config.bridge_regulator]
        )
        self.provisioner = RegulatorProvisioner(
            self.sim,
            all_specs,
            dram_idle_probe=lambda: self.dram.queue_depth == 0,
        )

        # The shared HP port bridging fabric -> PS.
        bridge_regulator = self.provisioner.build(config.bridge_regulator)
        bridge_port = MasterPort(
            self.sim,
            PortConfig(
                name=config.bridge_name,
                max_outstanding=config.bridge_outstanding,
            ),
            regulator=bridge_regulator,
        )
        self.ps.attach_port(bridge_port)
        self.bridge = Bridge(self.sim, bridge_port)
        self.fabric.attach_memory(self.bridge)
        self.ports[config.bridge_name] = bridge_port
        if bridge_regulator is not None:
            self.regulators[config.bridge_name] = bridge_regulator
            self.qos_manager.register(config.bridge_name, bridge_regulator)

        for spec in config.cpus:
            self._build_master(spec, self.ps)
        for spec in config.accels:
            self._build_master(spec, self.fabric)
        if self.prem_controller is not None:
            self._wire_prem_protection()

    # ------------------------------------------------------------------
    # shared regulator resources (delegated to the provisioner)
    # ------------------------------------------------------------------
    @property
    def reclaim_pool(self):
        return self.provisioner.reclaim_pool

    @property
    def prem_controller(self):
        return self.provisioner.prem_controller

    @property
    def tdma_schedule(self):
        return self.provisioner.tdma_schedule

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _wire_prem_protection(self) -> None:
        """PREM mutual exclusion across levels: critical masters'
        memory phases exclude every regulated actor."""
        critical_ports = [
            self.ports[name] for name in self.critical_names
        ]
        if not critical_ports:
            return

        def protected_active() -> bool:
            return any(
                p.queue_depth > 0 or p.outstanding > 0
                for p in critical_ports
            )

        self.prem_controller.set_protected_probe(protected_active)

    def _build_master(self, spec: MasterSpec, interconnect: Interconnect) -> None:
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
        )
        interconnect.attach_port(port)
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
    # execution (mirrors Platform.run)
    # ------------------------------------------------------------------
    def run(self, max_cycles: int, stop_when_critical_done: bool = True) -> int:
        if max_cycles < 1:
            raise ConfigError(f"max_cycles must be >= 1, got {max_cycles}")
        specs = list(self.config.cpus) + list(self.config.accels)
        critical = [self.masters[m.name] for m in specs if m.critical]
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
        for spec in specs:
            self.masters[spec.name].start(spec.start_at)
        return self.sim.run(until=max_cycles)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def critical_names(self):
        """Names of critical masters (PlatformResult compatibility)."""
        specs = list(self.config.cpus) + list(self.config.accels)
        return [m.name for m in specs if m.critical]

    def master(self, name: str) -> Master:
        try:
            return self.masters[name]
        except KeyError:
            raise ConfigError(f"unknown master {name!r}") from None

    def port(self, name: str) -> MasterPort:
        try:
            return self.ports[name]
        except KeyError:
            raise ConfigError(f"unknown port {name!r}") from None
