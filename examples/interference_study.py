#!/usr/bin/env python3
"""Memory-interference characterization across workload envelopes.

Reproduces (in miniature) the interference study that motivates the
paper: how much does each class of critical task suffer, per class of
co-running accelerator traffic?  Victims differ in memory-level
parallelism and locality; aggressors differ in burstiness and
row-buffer behaviour.

Run:  python examples/interference_study.py
"""

from repro import run_experiment, slowdown, zcu102
from repro.analysis.sweep import format_table

VICTIMS = ("latency_probe", "pointer_chase", "stencil")
AGGRESSORS = ("stream_read", "stream_write", "memcpy", "fft_stride",
              "matmul_stream")
HOGS = 4
WORK = 2_000


def runtime_for(cpu_workload, accel_workload, num_accels):
    config = zcu102(
        num_accels=num_accels,
        cpu_workload=cpu_workload,
        accel_workload=accel_workload,
        cpu_work=WORK,
    )
    return run_experiment(config).critical_runtime()


def main():
    rows = []
    for victim in VICTIMS:
        solo = runtime_for(victim, "stream_read", 0)
        row = {"victim": victim, "solo_cycles": solo}
        for aggressor in AGGRESSORS:
            loaded = runtime_for(victim, aggressor, HOGS)
            row[aggressor] = round(slowdown(loaded, solo), 2)
        rows.append(row)
    print(format_table(
        rows,
        title=(
            f"Critical-task slowdown under {HOGS} co-running accelerators "
            "(columns = aggressor workload, values = x slower than solo)"
        ),
    ))
    print()
    print("Reading the table:")
    print(" * pointer_chase (MLP=1) suffers most -- every miss meets the")
    print("   full queueing delay, nothing overlaps.")
    print(" * write-heavy and strided aggressors hurt more per byte than")
    print("   clean streaming reads (bus turnarounds, row conflicts).")
    print(" * matmul_stream has a 50% DMA duty cycle, so it interferes")
    print("   roughly half as much as the always-on hogs.")


if __name__ == "__main__":
    main()
