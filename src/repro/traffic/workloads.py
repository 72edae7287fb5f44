"""Kernel-shaped workload library.

The reproduced paper evaluates with memory-intensive kernels running
on the host cores and on FPGA accelerators.  Without the original
binaries, we model each kernel by its *memory access envelope* --
pattern shape, burstiness, read/write mix and memory-level
parallelism -- which is what determines interference and regulation
behaviour at the DRAM.  Each entry documents the envelope choice.

Use :func:`make_workload` to instantiate a named workload on a port::

    master = make_workload("memcpy", sim, port, base=0x1000_0000,
                           extent=8 << 20, seed=7)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import ConfigError
from repro.sim.kernel import Simulator
from repro.sim.rng import component_rng
from repro.axi.port import MasterPort
from repro.traffic.accelerator import AcceleratorConfig, StreamAccelerator
from repro.traffic.arrivals import OpenLoopConfig, OpenLoopMaster
from repro.traffic.cpu import CpuConfig, CpuCore
from repro.traffic.master import Master
from repro.traffic.patterns import RandomPattern, SequentialPattern, StridedPattern

BuilderFn = Callable[[Simulator, MasterPort, int, int, int, Optional[int]], Master]


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload with its access-envelope documentation.

    Attributes:
        name: Registry key.
        kind: ``"cpu"`` (latency-sensitive) or ``"accel"``
            (bandwidth-bound DMA).
        description: The kernel this envelope stands in for.
        builder: Factory ``(sim, port, base, extent, seed, work) -> Master``
            where ``work`` bounds the total accesses (cpu) or bytes
            (accel), ``None`` = unbounded.
    """

    name: str
    kind: str
    description: str
    builder: BuilderFn


def _memcpy(sim, port, base, extent, seed, work) -> Master:
    # memcpy: two interleaved sequential streams, one read one write;
    # modelled as a sequential burst stream with 50% writes.
    pattern = SequentialPattern(base, extent, 256)
    cfg = AcceleratorConfig(
        pattern=pattern, burst_beats=16, write_ratio=0.5, total_bytes=work
    )
    return StreamAccelerator(sim, port, cfg)


def _stream_read(sim, port, base, extent, seed, work) -> Master:
    # STREAM-like pure read bandwidth hog: long sequential read bursts.
    pattern = SequentialPattern(base, extent, 256)
    cfg = AcceleratorConfig(
        pattern=pattern, burst_beats=16, write_ratio=0.0, total_bytes=work
    )
    return StreamAccelerator(sim, port, cfg)


def _stream_write(sim, port, base, extent, seed, work) -> Master:
    # Pure write stream (e.g. a camera/video DMA writing frames).
    pattern = SequentialPattern(base, extent, 256)
    cfg = AcceleratorConfig(
        pattern=pattern, burst_beats=16, write_ratio=1.0, total_bytes=work
    )
    return StreamAccelerator(sim, port, cfg)


def _matmul_stream(sim, port, base, extent, seed, work) -> Master:
    # Tiled matmul accelerator: DMA bursts of tiles, then a compute
    # phase roughly as long as the transfer -> 50% duty cycle.
    pattern = SequentialPattern(base, extent, 256)
    cfg = AcceleratorConfig(
        pattern=pattern,
        burst_beats=16,
        write_ratio=0.25,
        total_bytes=work,
        active_cycles=2000,
        idle_cycles=2000,
    )
    return StreamAccelerator(sim, port, cfg)


def _fft_stride(sim, port, base, extent, seed, work) -> Master:
    # FFT butterflies: strided accesses that change DRAM row often;
    # stride of 4 KiB defeats the row buffer.
    pattern = StridedPattern(base, extent, stride=4096, access_bytes=256)
    cfg = AcceleratorConfig(
        pattern=pattern, burst_beats=16, write_ratio=0.5, total_bytes=work
    )
    return StreamAccelerator(sim, port, cfg)


def _open_loop_stream(sim, port, base, extent, seed, work) -> Master:
    # Interrupt-driven sensor/telemetry DMA: short bursts arrive on an
    # external Poisson clock whatever the congestion (open loop), so
    # under regulation they pile up in the port queue instead of
    # self-throttling.  The fast offered rate makes this the
    # regulation-bound steady-streaming shape, where a denied head
    # stays parked while arrivals keep kicking arbitration.
    pattern = SequentialPattern(base, extent, 64)
    requests = None if work is None else max(1, work // 64)
    cfg = OpenLoopConfig(
        pattern=pattern,
        arrival="poisson",
        mean_gap_cycles=2.0,
        burst_len=4,
        bytes_per_beat=16,
        write_ratio=0.0,
        num_requests=requests,
        rng=component_rng(seed, port.name),
    )
    return OpenLoopMaster(sim, port, cfg)


def _pointer_chase(sim, port, base, extent, seed, work) -> Master:
    # Linked-list traversal on a core: one dependent miss at a time.
    pattern = RandomPattern(base, extent, 64, component_rng(seed, port.name))
    cfg = CpuConfig(pattern=pattern, num_accesses=work, think_cycles=10, mlp=1)
    return CpuCore(sim, port, cfg)


def _stencil(sim, port, base, extent, seed, work) -> Master:
    # Stencil sweep on a core: streaming lines with a little compute
    # and moderate MLP from the hardware prefetcher.
    pattern = SequentialPattern(base, extent, 64)
    cfg = CpuConfig(
        pattern=pattern, num_accesses=work, think_cycles=20, mlp=4, write_ratio=0.3
    )
    return CpuCore(sim, port, cfg)


def _video_scale(sim, port, base, extent, seed, work) -> Master:
    # Video scaler/rotator: reads frames sequentially, writes them
    # back with a stride (transposed lines) -> mixed locality.
    pattern = StridedPattern(base, extent, stride=2048, access_bytes=256)
    cfg = AcceleratorConfig(
        pattern=pattern, burst_beats=16, write_ratio=0.5, total_bytes=work
    )
    return StreamAccelerator(sim, port, cfg)


def _hash_join(sim, port, base, extent, seed, work) -> Master:
    # Hash-join probe side: random lookups with moderate MLP and a
    # little per-tuple compute -- locality-hostile CPU traffic.
    pattern = RandomPattern(base, extent, 64, component_rng(seed, port.name))
    cfg = CpuConfig(pattern=pattern, num_accesses=work, think_cycles=15,
                    mlp=4, write_ratio=0.1)
    return CpuCore(sim, port, cfg)


def _spmv(sim, port, base, extent, seed, work) -> Master:
    # Sparse matrix-vector multiply: streaming matrix values with
    # random gathers into the dense vector; modelled as a random-
    # dominant mix (the gathers set the memory behaviour).
    pattern = RandomPattern(base, extent, 64, component_rng(seed, port.name))
    cfg = CpuConfig(pattern=pattern, num_accesses=work, think_cycles=5,
                    mlp=6)
    return CpuCore(sim, port, cfg)


def _compute_mix(sim, port, base, extent, seed, work) -> Master:
    # A realistic critical task: substantial computation between
    # misses (e.g. control code with a warm L2), so only part of its
    # runtime is exposed to memory interference.
    pattern = SequentialPattern(base, extent, 64)
    cfg = CpuConfig(pattern=pattern, num_accesses=work, think_cycles=150, mlp=2)
    return CpuCore(sim, port, cfg)


def _latency_probe(sim, port, base, extent, seed, work) -> Master:
    # The paper's "task under test": a latency-critical reader with
    # modest MLP and real compute between misses.
    pattern = SequentialPattern(base, extent, 64)
    cfg = CpuConfig(pattern=pattern, num_accesses=work, think_cycles=30, mlp=2)
    return CpuCore(sim, port, cfg)


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("memcpy", "accel", "bulk copy DMA (50% writes)", _memcpy),
        WorkloadSpec("stream_read", "accel", "pure read bandwidth hog", _stream_read),
        WorkloadSpec("stream_write", "accel", "pure write DMA stream", _stream_write),
        WorkloadSpec(
            "matmul_stream", "accel", "tiled matmul with 50% DMA duty", _matmul_stream
        ),
        WorkloadSpec("fft_stride", "accel", "strided FFT-like traffic", _fft_stride),
        WorkloadSpec(
            "open_loop_stream", "accel",
            "interrupt-driven open-loop burst stream (Poisson arrivals)",
            _open_loop_stream,
        ),
        WorkloadSpec(
            "pointer_chase", "cpu", "dependent-load linked-list walk", _pointer_chase
        ),
        WorkloadSpec("stencil", "cpu", "streaming stencil sweep", _stencil),
        WorkloadSpec(
            "compute_mix", "cpu", "compute-heavy task with periodic misses",
            _compute_mix,
        ),
        WorkloadSpec(
            "video_scale", "accel", "frame scaler: strided read/write mix",
            _video_scale,
        ),
        WorkloadSpec(
            "hash_join", "cpu", "random-probe hash join (locality-hostile)",
            _hash_join,
        ),
        WorkloadSpec(
            "spmv", "cpu", "sparse matrix-vector gathers (high MLP)", _spmv
        ),
        WorkloadSpec(
            "latency_probe", "cpu", "latency-critical reader (task under test)",
            _latency_probe,
        ),
    )
}


def make_workload(
    name: str,
    sim: Simulator,
    port: MasterPort,
    base: int,
    extent: int,
    seed: int = 0,
    work: Optional[int] = None,
) -> Master:
    """Instantiate a named workload on ``port``.

    Args:
        name: Key in :data:`WORKLOADS`.
        sim: Simulation kernel.
        port: The master port to drive.
        base: Start of the workload's memory region.
        extent: Region size in bytes.
        seed: Experiment seed (used by stochastic patterns).
        work: Work bound -- total accesses for ``cpu`` workloads,
            total bytes for ``accel`` workloads; ``None`` = unbounded.

    Returns:
        A started-ready :class:`~repro.traffic.master.Master`.
    """
    try:
        spec = WORKLOADS[name]
    except KeyError:
        raise ConfigError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return spec.builder(sim, port, base, extent, seed, work)
