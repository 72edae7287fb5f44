"""The paper suite as benchmark workloads, and the metrics reported on it.

Importing this module imports nothing from ``repro``: the orchestrator
(``run.py``) uses it before any simulator code is loaded, so that the
set-up probes measure a cold import.

Each workload is a closed suite of fixed experiment configs (no served
traffic).  Together the four run every experiment E1--E21 exactly once;
E22 is left out because its tables contain host timings.  The grouping
follows contention shape, not experiment number:

* ``interference`` -- unregulated or lightly regulated contention, up
  to 8 hogs: AXI arbitration and DRAM are heaviest here, and a
  regulator change should show no change.
* ``tc_fine`` -- the tightly-coupled regulator at fine windows against
  closed-loop DMA hogs: many admission checks per transaction, most
  denied; regulator and port/regulator protocol work shows here.
* ``regulator_mix`` -- the other regulator families and DRAM policies
  (MemGuard periods, reclaim, work-conserving injection, FR-FCFS vs
  FCFS, carry-over, TDMA, PREM): a change to the shared regulator/port
  interface that helps TC must not slow these.
* ``backlog`` -- hand-built topologies where transactions queue behind
  a denied head (Poisson open-loop arrivals, a deep-queued hog, split
  AR/AW queues); open-loop arrivals use the port and regulator
  differently from the closed-loop hogs of ``tc_fine``.
"""

from __future__ import annotations

import glob
import os
from typing import Dict, Tuple

#: Repository root (this file lives in ``benchmarks/perf/``).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: The experiment applications and their committed golden tables.
BENCH_DIR = os.path.join(ROOT, "benchmarks")
GOLDEN_DIR = os.path.join(BENCH_DIR, "results")

#: Workload name -> experiment numbers, in run order.
WORKLOADS: Dict[str, Tuple[int, ...]] = {
    "interference": (1, 4, 6, 17, 21),
    "tc_fine": (3, 5, 8, 12, 20),
    "regulator_mix": (2, 7, 9, 10, 13, 14, 15, 16),
    "backlog": (11, 18, 19),
}

#: The experiments the workloads must cover, each exactly once.
SUITE = tuple(range(1, 22))

#: End-to-end metrics (untraced runs): name -> unit.  ``fail_frac`` is
#: not among them: it is 0 on a healthy tree, and the result line's
#: ``failed``/``attempted`` fields carry it instead.
END_TO_END = {
    "wall_s": "s",
    "sim_cycles_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace`` runs): name -> unit.
PER_LAYER = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.backend_promotions": "count",
    "axi.self_s": "s",
    "axi.txns": "count",
    "axi.heads_per_txn": "ratio",
    "axi.accept_ratio": "ratio",
    "axi.queueing_cyc_mean": "cycles",
    "regulation.self_s": "s",
    "regulation.checks_per_txn": "ratio",
    "regulation.admit_ratio": "ratio",
    "regulation.retries": "count",
    "traffic.self_s": "s",
    "traffic.issued": "count",
    "dram.self_s": "s",
    "dram.requests": "count",
    "dram.ns_per_request": "ns",
    "dram.row_hit_rate": "ratio",
    "monitor.self_s": "s",
    "monitor.observations": "count",
    "telemetry.self_s": "s",
    "telemetry.calls_per_txn": "ratio",
    "soc.build_s": "s",
    "soc.builds": "count",
    "runner.self_s": "s",
    "runner.specs": "count",
    "runner.cache_writes": "count",
    "harness.self_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_share": "ratio",
}


def experiment_module(number: int) -> str:
    """Import name of experiment ``number``'s application module."""
    matches = glob.glob(os.path.join(BENCH_DIR, f"bench_e{number}_*.py"))
    if len(matches) != 1:
        raise LookupError(
            f"expected one benchmarks/bench_e{number}_*.py, found {len(matches)}"
        )
    return "benchmarks." + os.path.basename(matches[0])[:-3]
