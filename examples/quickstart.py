#!/usr/bin/env python3
"""Quickstart: protect a critical core with the tightly-coupled regulator.

Builds the ZCU102-like platform three times:

1. the critical core alone (the isolation baseline);
2. with four unregulated FPGA DMA hogs (the problem);
3. with the same hogs each held to 10% of the DRAM channel peak by
   the tightly-coupled bandwidth regulator (the paper's fix).

Run:  python examples/quickstart.py
"""

from repro import RegulatorSpec, run_experiment, slowdown, zcu102


def describe(tag, result, solo_runtime):
    critical = result.critical()
    print(f"  {tag}:")
    print(f"    critical runtime : {result.critical_runtime():>9,} cycles "
          f"(slowdown {slowdown(result.critical_runtime(), solo_runtime):.2f}x)")
    print(f"    miss latency     : mean {critical.latency_mean:6.1f}  "
          f"p99 {critical.latency_p99:6.0f} cycles")
    hogs = [name for name in result.masters if name.startswith("acc")]
    if hogs:
        total = sum(result.master(h).bandwidth_bytes_per_cycle for h in hogs)
        print(f"    hog bandwidth    : {total:5.2f} B/cycle total "
              f"({result.bandwidth_gbps(hogs[0]):.2f} GB/s each)")
    print(f"    DRAM utilization : {result.dram.utilization:.1%}")
    print()


def main():
    print("=== 1. Critical core alone (isolation baseline) ===")
    solo = run_experiment(zcu102(num_accels=0))
    solo_runtime = solo.critical_runtime()
    describe("solo", solo, solo_runtime)

    print("=== 2. Four unregulated DMA hogs (the problem) ===")
    loaded = run_experiment(zcu102(num_accels=4))
    describe("unregulated", loaded, solo_runtime)

    print("=== 3. Hogs regulated to 10% of peak each, 256-cycle window ===")
    # 10% of the 16 B/cycle channel peak = 1.6 B/cycle; over a
    # 256-cycle window that is a 410-byte budget.
    spec = RegulatorSpec(
        kind="tightly_coupled", window_cycles=256, budget_bytes=410
    )
    regulated = run_experiment(zcu102(num_accels=4, accel_regulator=spec))
    describe("tightly-coupled", regulated, solo_runtime)

    print("The regulator bounds each hog to its reservation, so the")
    print("critical core runs near isolation speed while the hogs")
    print("still consume a controlled share of the DRAM bandwidth.")

    print()
    print("=== Probes: end-of-run snapshot of the regulated run ===")
    probes = regulated.platform.probes
    for name, value in list(probes.snapshot().items())[:20]:
        print(f"  {name:<32} {value} {probes.get(name).unit}")


if __name__ == "__main__":
    main()
