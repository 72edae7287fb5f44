"""E4 -- Critical-task latency distribution per regulation scheme.

One critical core against four hogs under: no regulation, static AXI
QoS priority, software MemGuard, and the tightly-coupled IP -- the
latter two at the same long-run hog rate (10% of peak each).  The
paper's figure is a latency CDF/percentile plot: the tightly-coupled
IP pushes the whole distribution (and especially the tail) close to
the solo baseline.
"""

from __future__ import annotations

from repro.analysis.bounds import CoRunnerEnvelope, worst_case_read_latency
from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import run_experiment

from benchmarks.common import loaded_config, memguard_spec, report, tc_spec

SHARE = 0.10

#: Beats per burst of the workloads E4 runs: the critical core's
#: 64-byte line fills and the hogs' 256-byte DMA bursts (16 B/beat).
BURST_BEATS = {"latency_probe": 4, "stream_read": 16}


def _percentile_row(name, result, solo_p99):
    critical = result.critical()
    return {
        "scheme": name,
        "mean": critical.latency_mean,
        "p50": critical.latency_p50,
        "p95": critical.latency_p95,
        "p99": critical.latency_p99,
        "max": critical.latency_max,
        "p99_vs_solo": critical.latency_p99 / solo_p99,
        "runtime": result.critical_runtime(),
    }


def latency_bound(config):
    """The analytic worst-case latency of ``config``'s critical master.

    Every other master is a co-runner with its port's outstanding
    limit and its workload's burst length.
    """
    critical = next(m for m in config.masters if m.critical)
    co_runners = [
        CoRunnerEnvelope(m.max_outstanding, BURST_BEATS[m.workload])
        for m in config.masters
        if m is not critical
    ]
    return worst_case_read_latency(
        timing=config.dram.timing,
        interconnect=config.interconnect,
        co_runners=co_runners,
        critical_burst_beats=BURST_BEATS[critical.workload],
        frfcfs_cap=config.dram.frfcfs_cap,
        own_outstanding=critical.max_outstanding,
    )


def run_e4():
    """Run every scheme; return the table rows and each row's bound."""
    configs = [
        ("solo", loaded_config(num_accels=0)),
        ("none", loaded_config(num_accels=4)),
        # Static QoS: priority at the crossbar *and* at the DDR
        # scheduler (QoS-aware controllers map AxQOS into scheduling
        # priority -- without that, crossbar priority alone has no
        # measurable effect because the contention lives in the DRAM
        # queue).
        (
            "static_qos",
            loaded_config(
                num_accels=4,
                arbiter="qos",
                scheduler="frfcfs_qos",
                cpu_regulator=RegulatorSpec(kind="static_qos", qos=15),
            ),
        ),
        (
            "memguard",
            loaded_config(num_accels=4, accel_regulator=memguard_spec(SHARE)),
        ),
        # The IP at its fine-grained operating point (256-cycle window
        # = ~1 us at 250 MHz): small enough that a window's budget is
        # about one DMA burst, so hog traffic arrives evenly spaced
        # instead of in window-start clumps.
        (
            "tightly_coupled",
            loaded_config(
                num_accels=4, accel_regulator=tc_spec(SHARE, window_cycles=256)
            ),
        ),
    ]
    rows, bounds = [], {}
    solo_p99 = None
    for name, config in configs:
        result = run_experiment(config)
        if solo_p99 is None:
            solo_p99 = result.critical().latency_p99
        rows.append(_percentile_row(name, result, solo_p99))
        bounds[name] = latency_bound(config)
    return rows, bounds


def test_e4_latency_distribution(benchmark):
    rows, bounds = benchmark.pedantic(run_e4, rounds=1, iterations=1)
    report(
        "e4_latency",
        rows,
        "E4: critical-task transaction latency (cycles) under each "
        f"regulation scheme (4 hogs at {SHARE:.0%} of peak each where "
        "regulated)",
    )
    by_scheme = {r["scheme"]: r for r in rows}
    # Every mitigation beats no regulation at the tail.
    for scheme in ("static_qos", "memguard", "tightly_coupled"):
        assert by_scheme[scheme]["p99"] < by_scheme["none"]["p99"]
    # The tightly-coupled IP is the closest to solo at the tail among
    # the *bandwidth* regulators (static QoS reorders but does not
    # bound rate, so it is not a reservation mechanism).
    assert (
        by_scheme["tightly_coupled"]["p99"] <= by_scheme["memguard"]["p99"]
    )
    # And within a factor ~4 of solo at the tail, with the median far
    # below the unregulated one.
    assert by_scheme["tightly_coupled"]["p99_vs_solo"] < 4.0
    assert by_scheme["tightly_coupled"]["p50"] < by_scheme["none"]["p50"]
    # Distributions are ordered sanely, and no critical transaction
    # exceeds the analytic worst-case bound of its configuration.
    for row in rows:
        assert row["p50"] <= row["p95"] <= row["p99"] <= row["max"]
        assert row["max"] <= bounds[row["scheme"]], row["scheme"]
