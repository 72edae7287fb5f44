"""repro -- cycle-level reproduction of *Fine-Grained QoS Control via
Tightly-Coupled Bandwidth Monitoring and Regulation for FPGA-based
Heterogeneous SoCs* (Brilli et al., DAC 2023).

The package models an FPGA-based heterogeneous SoC (CPU cores + FPGA
accelerators sharing one DRAM channel) at the AXI-transaction level
and implements the paper's tightly-coupled hardware bandwidth
monitor/regulator IP alongside the baselines it is compared against
(software MemGuard, static AXI QoS, no regulation).

Quickstart::

    from repro import zcu102, run_experiment, RegulatorSpec

    # 4 unregulated DMA hogs next to one critical core:
    unreg = zcu102(num_accels=4)
    loaded = run_experiment(unreg)

    # The same system with each hog held to 10% of channel peak by
    # the tightly-coupled regulator (budget in bytes per window):
    spec = RegulatorSpec(kind="tightly_coupled",
                         window_cycles=1024, budget_bytes=1638)
    regulated = run_experiment(zcu102(num_accels=4, accel_regulator=spec))

    print(loaded.critical().latency_p99, regulated.critical().latency_p99)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced evaluation.
"""

from repro.errors import (
    CacheError,
    CheckError,
    ConfigError,
    LintError,
    ProbeError,
    ProtocolError,
    RegulationError,
    ReproError,
    SanitizerError,
    SimulationError,
)
from repro.checks.sanitize import SanitizingQueue, sanitize_enabled
from repro.sim.config import ClockSpec
from repro.sim.kernel import Simulator
from repro.axi.bridge import Bridge
from repro.axi.interconnect import Interconnect, InterconnectConfig
from repro.axi.port import MasterPort, PortConfig
from repro.axi.txn import Transaction
from repro.dram.controller import DramConfig, DramController
from repro.dram.timing import DramTiming
from repro.monitor.histogram import LatencyHistogram
from repro.monitor.latency import LatencyMonitor
from repro.monitor.window import WindowedBandwidthMonitor
from repro.qos.budget import BandwidthBudget
from repro.qos.manager import QosManager
from repro.qos.policy import QosPolicy, critical_plus_besteffort, proportional_shares
from repro.regulation.factory import RegulatorSpec, make_regulator
from repro.regulation.memguard import MemGuardConfig, MemGuardRegulator, ReclaimPool
from repro.regulation.tightly_coupled import (
    TightlyCoupledConfig,
    TightlyCoupledRegulator,
)
from repro.regulation.token_bucket import TokenBucket
from repro.soc.experiment import (
    PlatformResult,
    run_experiment,
    run_solo_baseline,
)
from repro.soc.hierarchy import TwoLevelConfig, TwoLevelPlatform
from repro.soc.platform import MasterSpec, Platform, PlatformConfig
from repro.soc.presets import kv260, zcu102
from repro.probes import (
    FlightRecorder,
    Probe,
    ProbeMap,
    ProbeSampler,
    SloRule,
    SloViolation,
    WatchView,
    build_probe_map,
    parse_rules,
)
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    RunSummary,
    execute_spec,
)
from repro.telemetry import (
    PhaseProfiler,
    RunnerTelemetry,
    TraceEventSink,
    export_platform_trace,
    profile_experiment,
)
from repro.analysis.metrics import (
    isolation_error,
    regulation_error,
    slowdown,
    utilization_of,
)
from repro.analysis.bounds import (
    CoRunnerEnvelope,
    guaranteed_bandwidth,
    worst_case_read_latency,
)
from repro.analysis.calibration import CalibrationResult, calibrate
from repro.analysis.compare import critical_summary
from repro.analysis.report import render_report
from repro.analysis.resources import ResourceEstimate, ResourceModel

__version__ = "1.0.0"

__all__ = [
    # errors
    "CacheError",
    "CheckError",
    "ConfigError",
    "LintError",
    "ProbeError",
    "ProtocolError",
    "RegulationError",
    "ReproError",
    "SanitizerError",
    "SimulationError",
    # kernel sanitizer
    "SanitizingQueue",
    "sanitize_enabled",
    # kernel / units
    "ClockSpec",
    "Simulator",
    # axi
    "Bridge",
    "Interconnect",
    "InterconnectConfig",
    "MasterPort",
    "PortConfig",
    "Transaction",
    # dram
    "DramConfig",
    "DramController",
    "DramTiming",
    # monitoring
    "LatencyHistogram",
    "LatencyMonitor",
    "WindowedBandwidthMonitor",
    # qos
    "BandwidthBudget",
    "QosManager",
    "QosPolicy",
    "critical_plus_besteffort",
    "proportional_shares",
    # regulation
    "RegulatorSpec",
    "make_regulator",
    "MemGuardConfig",
    "MemGuardRegulator",
    "ReclaimPool",
    "TightlyCoupledConfig",
    "TightlyCoupledRegulator",
    "TokenBucket",
    # platform
    "PlatformResult",
    "run_experiment",
    "run_solo_baseline",
    "MasterSpec",
    "Platform",
    "PlatformConfig",
    "TwoLevelConfig",
    "TwoLevelPlatform",
    "kv260",
    "zcu102",
    # probes (live observability plane)
    "FlightRecorder",
    "Probe",
    "ProbeMap",
    "ProbeSampler",
    "SloRule",
    "SloViolation",
    "WatchView",
    "build_probe_map",
    "parse_rules",
    # runner
    "ParallelRunner",
    "ResultCache",
    "RunSpec",
    "RunSummary",
    "execute_spec",
    # telemetry
    "PhaseProfiler",
    "RunnerTelemetry",
    "TraceEventSink",
    "export_platform_trace",
    "profile_experiment",
    # analysis
    "isolation_error",
    "regulation_error",
    "slowdown",
    "utilization_of",
    "CoRunnerEnvelope",
    "guaranteed_bandwidth",
    "worst_case_read_latency",
    "CalibrationResult",
    "calibrate",
    "critical_summary",
    "render_report",
    "ResourceEstimate",
    "ResourceModel",
    "__version__",
]
