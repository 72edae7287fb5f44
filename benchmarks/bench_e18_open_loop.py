"""E18 -- Open-loop victims: latency vs offered load.

Closed-loop victims (cores) self-throttle under interference -- they
get slower.  Open-loop victims (interrupt- and sensor-driven I/O)
do not: requests arrive on an external clock, and congestion turns
directly into latency and backlog.  This experiment sweeps the
offered load of a Poisson request stream against four streaming hogs,
unregulated vs regulated at 10% of peak each -- the queueing-curve
view of what regulation buys.

The final sweep point deliberately offers *more* than the residual
capacity the hog reservations leave (10.2 B/cyc offered vs ~6.8
residual): there the unreserved victim collapses even though the hogs
are regulated.  Reservations are guarantees for their holders, not
for bystanders -- open-loop actors must fit in the residual capacity
(`repro.analysis.bounds.guaranteed_bandwidth` computes it and rejects
oversubscribed reservations).
"""

from __future__ import annotations

from repro.axi.interconnect import Interconnect
from repro.axi.port import MasterPort, PortConfig
from repro.dram.controller import DramController
from repro.regulation.tightly_coupled import (
    TightlyCoupledConfig,
    TightlyCoupledRegulator,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import component_rng
from repro.soc.presets import zcu102_dram, zcu102_interconnect
from repro.traffic.accelerator import AcceleratorConfig, StreamAccelerator
from repro.traffic.arrivals import OpenLoopConfig, OpenLoopMaster
from repro.traffic.patterns import SequentialPattern

from benchmarks.common import PEAK, report

HOGS = 4
SHARE = 0.10
WINDOW = 256
MEAN_GAPS = (400.0, 200.0, 100.0, 50.0, 25.0)
HORIZON = 300_000
MB = 1 << 20


def _build_system(regulated, mean_gap, seed=5):
    sim = Simulator()
    dram = DramController(sim, zcu102_dram())
    interconnect = Interconnect(sim, zcu102_interconnect())
    interconnect.attach_memory(dram)

    victim_port = MasterPort(sim, PortConfig(name="sensor", max_outstanding=64))
    interconnect.attach_port(victim_port)
    victim = OpenLoopMaster(
        sim,
        victim_port,
        OpenLoopConfig(
            pattern=SequentialPattern(0x1000_0000, 4 * MB, 64),
            arrival="poisson",
            mean_gap_cycles=mean_gap,
            burst_len=4,
            rng=component_rng(seed, "sensor"),
        ),
    )
    hogs = []
    for index in range(HOGS):
        regulator = None
        if regulated:
            regulator = TightlyCoupledRegulator(
                sim,
                TightlyCoupledConfig(
                    window_cycles=WINDOW,
                    budget_bytes=max(1, round(SHARE * PEAK * WINDOW)),
                    window_phase=(index * WINDOW) // HOGS,
                ),
            )
        port = MasterPort(
            sim,
            PortConfig(name=f"acc{index}", max_outstanding=8),
            regulator=regulator,
        )
        interconnect.attach_port(port)
        hogs.append(
            StreamAccelerator(
                sim,
                port,
                AcceleratorConfig(
                    pattern=SequentialPattern(
                        0x2000_0000 + index * 4 * MB, 4 * MB, 256
                    ),
                    burst_beats=16,
                ),
            )
        )
    return sim, victim, victim_port, hogs


def _run(regulated, mean_gap):
    sim, victim, victim_port, hogs = _build_system(regulated, mean_gap)
    victim.start()
    for hog in hogs:
        hog.start()
    sim.run(until=HORIZON)
    latency = victim_port.stats.sampler("latency")
    return {
        "offered_B_cyc": 256 / mean_gap,
        "scheme": "regulated" if regulated else "unregulated",
        "p50_lat": float(latency.percentile(50)),
        "p99_lat": float(latency.percentile(99)),
        "backlog_end": victim.backlog,
    }


def run_e18():
    rows = []
    for mean_gap in MEAN_GAPS:
        rows.append(_run(False, mean_gap))
        rows.append(_run(True, mean_gap))
    return rows


def test_e18_open_loop(benchmark):
    rows = benchmark.pedantic(run_e18, rounds=1, iterations=1)
    report(
        "e18_open_loop",
        rows,
        "E18: open-loop (Poisson) victim latency vs offered load, "
        f"{HOGS} hogs unregulated vs at {SHARE:.0%} of peak each",
        columns=["offered_B_cyc", "scheme", "p50_lat", "p99_lat",
                 "backlog_end"],
    )
    hog_reserved = HOGS * SHARE * PEAK  # 6.4 B/cyc
    residual = PEAK - hog_reserved
    regulated = [r for r in rows if r["scheme"] == "regulated"]
    unregulated = [r for r in rows if r["scheme"] == "unregulated"]
    feasible = [
        (reg, unreg)
        for reg, unreg in zip(regulated, unregulated)
        if reg["offered_B_cyc"] <= residual
    ]
    assert len(feasible) >= 4
    # Within the residual capacity, regulation flattens the curve:
    # every feasible load point improves, by a lot.
    for reg, unreg in feasible:
        assert reg["p99_lat"] < unreg["p99_lat"] * 0.5
    # And the regulated curve shows no congestion collapse there.
    feasible_regs = [reg for reg, _ in feasible]
    assert feasible_regs[-1]["p99_lat"] < feasible_regs[0]["p99_lat"] * 4
    assert all(r["backlog_end"] < 64 for r, _ in feasible)
    # Beyond the residual capacity the *unreserved* victim collapses
    # despite the hogs being regulated -- the admission-control story.
    overload = [r for r in regulated if r["offered_B_cyc"] > residual]
    assert overload and overload[-1]["backlog_end"] > 100
