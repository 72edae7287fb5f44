"""Traffic generation (substrate S4).

Masters model the two actor classes of the reproduced paper's
platform:

* :class:`repro.traffic.cpu.CpuCore` -- a latency-sensitive processor
  core with limited memory-level parallelism whose progress *depends*
  on individual miss latencies (the "critical task").
* :class:`repro.traffic.accelerator.StreamAccelerator` -- a DMA-driven
  FPGA accelerator that issues long bursts and keeps many transactions
  in flight (the "bandwidth hog" / best-effort actor).

:mod:`repro.traffic.workloads` composes them into kernel-shaped
workloads (memcpy, streaming matmul, strided FFT, pointer chase).
"""

from repro.traffic.accelerator import AcceleratorConfig, StreamAccelerator
from repro.traffic.arrivals import OpenLoopConfig, OpenLoopMaster
from repro.traffic.cpu import CpuConfig, CpuCore
from repro.traffic.master import Master
from repro.traffic.patterns import (
    AddressPattern,
    RandomPattern,
    SequentialPattern,
    StridedPattern,
    make_pattern,
)
from repro.traffic.workloads import WORKLOADS, WorkloadSpec, make_workload

__all__ = [
    "AcceleratorConfig",
    "StreamAccelerator",
    "OpenLoopConfig",
    "OpenLoopMaster",
    "CpuConfig",
    "CpuCore",
    "Master",
    "AddressPattern",
    "RandomPattern",
    "SequentialPattern",
    "StridedPattern",
    "make_pattern",
    "WORKLOADS",
    "WorkloadSpec",
    "make_workload",
]
