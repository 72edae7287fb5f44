"""Regulator construction from declarative specs.

The SoC platform layer describes each port's regulation with a
:class:`RegulatorSpec`; :func:`make_regulator` turns it into a live
regulator object.  This keeps experiment definitions declarative --
a benchmark swaps regulation schemes by swapping specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.sim.kernel import Simulator
from repro.regulation.base import BandwidthRegulator
from repro.regulation.memguard import MemGuardConfig, MemGuardRegulator, ReclaimPool
from repro.regulation.noreg import NoRegulation
from repro.regulation.static_qos import StaticQosRegulator
from repro.regulation.prem import PremController, PremRegulator
from repro.regulation.tdma import TdmaRegulator
from repro.regulation.tightly_coupled import (
    TightlyCoupledConfig,
    TightlyCoupledRegulator,
)

KINDS = (
    "none",
    "noreg",
    "tightly_coupled",
    "memguard",
    "static_qos",
    "tdma",
    "prem",
)


@dataclass(frozen=True)
class RegulatorSpec:
    """Declarative description of one port's regulation.

    Attributes:
        kind: One of :data:`KINDS`.  ``"none"`` means no regulator
            object at all; ``"noreg"`` is a monitored passthrough.
        budget_bytes: Per-window (tightly_coupled) or per-period
            (memguard) byte budget.
        window_cycles: Replenish window for ``tightly_coupled``.
        period_cycles: Regulation period for ``memguard``.
        carryover_windows: Credit carry-over for ``tightly_coupled``.
        burst_aware: Burst-aware charging for ``tightly_coupled``.
        feedback_delay: Monitor-to-regulator feedback delay
            (``tightly_coupled``; 0 = tightly coupled).
        reconfig_latency: Budget register-write latency
            (``tightly_coupled``).
        interrupt_latency: IRQ latency (``memguard``).
        qos: AXI QoS value (``static_qos``).
        monitor_window: Window for passthrough monitors
            (``noreg`` / ``static_qos``).
        window_phase: Explicit window phase offset
            (``tightly_coupled``).
        stagger: Let the platform layer auto-stagger window phases
            across regulated ports (``tightly_coupled``; models IP
            instances being enabled one after another).  Ignored when
            ``window_phase`` is non-zero.
        work_conserving: CMRI-style idle-time injection
            (``tightly_coupled``); the platform wires the DRAM idle
            probe automatically.
        reclaim: Predictive budget reclaim (``memguard``); requires a
            shared :class:`~repro.regulation.memguard.ReclaimPool`,
            which the platform provides automatically.
        reclaim_chunk: Bytes per reclaim grant (``memguard``).
        tdma_slots: Frame length in slots (``tdma``); 0 lets the
            platform size the frame to the number of TDMA-regulated
            masters.  Slot width is ``window_cycles``; the platform
            assigns slot indexes.
        prem_hold_cycles: Memory-phase length bound (``prem``); the
            platform builds one shared token controller per system.
    """

    kind: str = "none"
    budget_bytes: int = 4096
    window_cycles: int = 1024
    period_cycles: int = 250_000
    carryover_windows: int = 0
    burst_aware: bool = True
    feedback_delay: int = 0
    reconfig_latency: int = 4
    interrupt_latency: int = 500
    qos: int = 0
    monitor_window: Optional[int] = None
    window_phase: int = 0
    stagger: bool = True
    work_conserving: bool = False
    regulate_reads: bool = True
    regulate_writes: bool = True
    reclaim: bool = False
    reclaim_chunk: int = 8_192
    tdma_slots: int = 0
    prem_hold_cycles: int = 2_048

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown regulator kind {self.kind!r}; one of {KINDS}")

    def bandwidth_bytes_per_cycle(self) -> float:
        """The long-run rate the spec enforces (regulating kinds only)."""
        if self.kind == "tightly_coupled":
            return self.budget_bytes / self.window_cycles
        if self.kind == "memguard":
            return self.budget_bytes / self.period_cycles
        raise ConfigError(f"{self.kind!r} does not enforce a rate")


def make_regulator(
    spec: Optional[RegulatorSpec],
    sim: Simulator,
    reclaim_pool: Optional[ReclaimPool] = None,
    tdma_binding: Optional[tuple] = None,
    prem_controller: Optional[PremController] = None,
) -> Optional[BandwidthRegulator]:
    """Instantiate the regulator described by ``spec``.

    Args:
        spec: The declarative description; ``None`` or kind
            ``"none"`` yields no regulator.
        sim: Simulation kernel (needed by time-driven regulators).
        reclaim_pool: Shared pool for ``memguard`` specs with
            ``reclaim=True`` (one pool per platform).
        tdma_binding: ``(TdmaSchedule, slot_index)`` for ``tdma``
            specs; the platform computes one schedule per system and
            assigns slot indexes.

    Returns:
        A regulator ready to be passed to
        :class:`~repro.axi.port.MasterPort`, or ``None``.
    """
    if spec is None or spec.kind == "none":
        return None
    if spec.kind == "noreg":
        return NoRegulation(monitor_window=spec.monitor_window)
    if spec.kind == "static_qos":
        return StaticQosRegulator(spec.qos, monitor_window=spec.monitor_window)
    if spec.kind == "tightly_coupled":
        config = TightlyCoupledConfig(
            window_cycles=spec.window_cycles,
            budget_bytes=spec.budget_bytes,
            carryover_windows=spec.carryover_windows,
            burst_aware=spec.burst_aware,
            feedback_delay=spec.feedback_delay,
            reconfig_latency=spec.reconfig_latency,
            window_phase=spec.window_phase,
            work_conserving=spec.work_conserving,
            regulate_reads=spec.regulate_reads,
            regulate_writes=spec.regulate_writes,
        )
        return TightlyCoupledRegulator(sim, config)
    if spec.kind == "memguard":
        config = MemGuardConfig(
            period_cycles=spec.period_cycles,
            budget_bytes=spec.budget_bytes,
            interrupt_latency=spec.interrupt_latency,
            reclaim=spec.reclaim,
            reclaim_chunk=spec.reclaim_chunk,
        )
        if spec.reclaim and reclaim_pool is None:
            raise ConfigError(
                "memguard reclaim requires a shared ReclaimPool "
                "(the platform layer provides one)"
            )
        return MemGuardRegulator(
            sim, config, pool=reclaim_pool if spec.reclaim else None
        )
    if spec.kind == "tdma":
        if tdma_binding is None:
            raise ConfigError(
                "tdma specs need a (schedule, slot) binding "
                "(the platform layer provides one)"
            )
        schedule, slot_index = tdma_binding
        return TdmaRegulator(
            schedule, slot_index, monitor_window=spec.monitor_window or 0
        )
    if spec.kind == "prem":
        if prem_controller is None:
            raise ConfigError(
                "prem specs need a shared PremController "
                "(the platform layer provides one)"
            )
        return PremRegulator(prem_controller)
    raise ConfigError(f"unhandled regulator kind {spec.kind!r}")
