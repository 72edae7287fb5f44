"""E5 -- Bandwidth utilization vs guaranteed slowdown trade-off.

The CMRI-lineage result: a PREM-style mutually-exclusive schedule
protects the critical task perfectly but leaves the accelerator
bandwidth unused; fine-grained regulation lets best-effort actors
consume a *controlled* amount of residual bandwidth at a bounded cost
to the critical task.  Sweeping the per-hog budget traces the
trade-off curve; the paper reports recovering >40% of the accelerator
bandwidth while keeping the critical slowdown below ~10-20%.
"""

from __future__ import annotations

from repro.analysis.metrics import slowdown
from repro.soc.experiment import run_experiment

from benchmarks.common import loaded_config, report, tc_spec

HOGS = 4
SHARES = (0.025, 0.05, 0.10, 0.15, 0.20, 0.25)
#: The protected task is a realistic compute/memory mix (see
#: ``repro.traffic.workloads.compute_mix``): the "below 10-20%
#: slowdown while recovering >40% of the accelerator bandwidth"
#: operating point the CMRI line of work reports is defined for such
#: tasks, not for a pure latency probe.
VICTIM = "compute_mix"
WINDOW = 256


def _config(num_accels, accel_regulator=None):
    return loaded_config(
        num_accels=num_accels,
        accel_regulator=accel_regulator,
        cpu_workload=VICTIM,
    )


def run_e5():
    solo = run_experiment(_config(num_accels=0))
    solo_runtime = solo.critical_runtime()
    rows = [
        {
            "per_hog_share": 0.0,
            "scheme": "prem_like",
            "slowdown": 1.0,
            "hog_bw_B_cyc": 0.0,
            "hog_bw_recovered": 0.0,
            "dram_util": solo.dram.utilization,
        }
    ]
    # Reference: what the 4 hogs draw with no regulation at all.
    unreg = run_experiment(_config(num_accels=HOGS))
    unreg_hog_bw = sum(
        unreg.master(f"acc{i}").bandwidth_bytes_per_cycle for i in range(HOGS)
    )
    for share in SHARES:
        result = run_experiment(
            _config(
                num_accels=HOGS,
                accel_regulator=tc_spec(share, window_cycles=WINDOW),
            )
        )
        runtime = result.critical_runtime()
        hog_bw = sum(
            result.master(f"acc{i}").bandwidth_bytes_per_cycle
            for i in range(HOGS)
        )
        rows.append(
            {
                "per_hog_share": share,
                "scheme": "tightly_coupled",
                "slowdown": slowdown(runtime, solo_runtime),
                "hog_bw_B_cyc": hog_bw,
                "hog_bw_recovered": hog_bw / unreg_hog_bw,
                "dram_util": result.dram.utilization,
            }
        )
    rows.append(
        {
            "per_hog_share": "unregulated",
            "scheme": "none",
            "slowdown": slowdown(unreg.critical_runtime(), solo_runtime),
            "hog_bw_B_cyc": unreg_hog_bw,
            "hog_bw_recovered": 1.0,
            "dram_util": unreg.dram.utilization,
        }
    )
    return rows


def test_e5_utilization_tradeoff(benchmark):
    rows = benchmark.pedantic(run_e5, rounds=1, iterations=1)
    report(
        "e5_utilization",
        rows,
        "E5: residual-bandwidth exploitation vs critical slowdown "
        f"({HOGS} hogs, per-hog budget swept; recovered = fraction of "
        "unregulated hog bandwidth)",
    )
    swept = [r for r in rows if r["scheme"] == "tightly_coupled"]
    # Monotone trade-off while the budget still binds: more budget ->
    # more hog bandwidth and more slowdown.  Points where the hogs
    # already draw ~all of their unregulated bandwidth are saturated
    # (the regulator no longer binds) and excluded from the
    # monotonicity check.
    binding = [r for r in swept if r["hog_bw_recovered"] < 0.95]
    bws = [r["hog_bw_B_cyc"] for r in binding]
    sds = [r["slowdown"] for r in binding]
    assert len(binding) >= 3
    assert all(b2 > b1 for b1, b2 in zip(bws, bws[1:]))
    assert all(s2 >= s1 * 0.98 for s1, s2 in zip(sds, sds[1:]))
    # Headline: >40% of the hog bandwidth recovered at modest cost.
    good = [r for r in swept if r["slowdown"] < 1.5]
    assert good, "no operating point with slowdown < 1.5"
    assert max(r["hog_bw_recovered"] for r in good) > 0.40
