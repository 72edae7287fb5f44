"""Paper-suite benchmark: E1--E21 as four workloads.

Run from the repository root::

    python3 benchmarks/perf/run.py [--workload NAME]... [--repeat N | --seconds T]
                                   [--seed S] [--trace [0|1]] [--out PATH]

(``PYTHONPATH=src:. python -m benchmarks.perf`` is the same command.)

One orchestrating process runs one workload subprocess at a time: each
(workload, round) is a fresh interpreter (``worker.py``) with
``REPRO_JOBS=1`` and an empty result cache.  Workload order rotates
across rounds so that drift on the host hits every workload.  Before
the rounds, each workload's set-up time is probed in
:data:`SETUP_PROBES` fresh interpreters that only import ``repro`` and
the workload's experiment modules.

Rounds: ``--repeat N`` runs exactly N; ``--seconds T`` keeps starting
rounds while the next one is expected to end within T seconds of the
first (always at least one); neither means one round.

Untraced runs report the end-to-end metrics of ``suite.END_TO_END``;
``--trace`` runs report the per-layer metrics of ``suite.PER_LAYER``
(each round runs the workload untraced, then traced, to measure the
tracing overhead).  Each metric is the median over rounds; ``--out``
writes the full record (min/max/n, failures, table digests, per-pass
and per-experiment numbers, layer self times and caller->callee edges).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from benchmarks.perf.suite import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    ROOT,
    WORKLOADS,
    experiment_module,
)
from benchmarks.perf.tracer import layer_metrics, layer_self_seconds, merge_raw  # noqa: E402

#: Fresh interpreters timed per workload for ``setup_s``.
SETUP_PROBES = 11

#: Working space for pass records, tables and caches (git-ignored,
#: removed at exit).
WORK_ROOT = os.path.join(ROOT, ".perf_tmp")

#: What a checkout must hold for the benchmark to run.
REQUIRED = ("src/repro/__init__.py", "benchmarks/common.py", "benchmarks/results")


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def setup_probes(workload: str, env: Dict[str, str]) -> List[float]:
    """Seconds from interpreter start to the workload's modules imported."""
    modules = ["repro"] + [experiment_module(n) for n in WORKLOADS[workload]]
    command = [sys.executable, "-c", "import " + ", ".join(modules)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def run_pass(workload: str, seed: int, trace: bool, env: Dict[str, str], work: str) -> Dict[str, Any]:
    """One pass of ``workload`` in a fresh worker process."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work)
    out = os.path.join(workdir, "pass.json")
    command = [
        sys.executable, "-m", "benchmarks.perf.worker",
        "--experiments", ",".join(str(n) for n in WORKLOADS[workload]),
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--workdir", workdir,
        "--out", out,
    ]
    subprocess.run(command, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        record = json.load(fh)
    shutil.rmtree(workdir)
    return record


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def untraced_metrics(passes: List[Dict[str, Any]], setup: List[float]) -> Dict[str, float]:
    """End-to-end metrics of one round (passes of one or more workloads)."""
    sim_s = sum(p["sim_run_s"] for p in passes)
    return {
        "wall_s": sum(p["wall_s"] for p in passes),
        "sim_cycles_per_s": sum(p["sim_cycles"] for p in passes) / sim_s if sim_s else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def traced_metrics(pairs: List[tuple]) -> Dict[str, float]:
    """Per-layer metrics of one round: (untraced, traced) pass pairs."""
    raw = merge_raw([traced["raw"] for _, traced in pairs])
    return layer_metrics(
        raw,
        traced_wall_s=sum(traced["wall_s"] for _, traced in pairs),
        untraced_wall_s=sum(untraced["wall_s"] for untraced, _ in pairs),
    )


def summarize(per_round: List[Dict[str, float]], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """Median, min, max and n of each metric over rounds."""
    out = {}
    for name, unit in units.items():
        values = [metrics[name] for metrics in per_round]
        out[name] = {
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "unit": unit,
        }
    return out


def _pass_summary(record: Dict[str, Any]) -> Dict[str, Any]:
    keep = ("trace", "wall_s", "cpu_s", "peak_rss_mb", "sim_cycles", "sim_run_s", "tables_sha256")
    summary = {name: record[name] for name in keep}
    summary["experiments"] = [
        {k: e[k] for k in ("id", "wall_s", "sim_cycles", "sim_run_s", "error")}
        for e in record["experiments"]
    ]
    return summary


def workload_record(
    workload: str, passes: List[Any], setup: List[float], trace: bool
) -> Dict[str, Any]:
    """Everything measured on one workload (passes in round order)."""
    records = [r for pair in passes for r in pair] if trace else list(passes)
    failures = [
        {"round": index // (2 if trace else 1), "experiment": e["id"], "error": e["error"]}
        for index, record in enumerate(records)
        for e in record["experiments"]
        if e["error"] is not None
    ]
    digests = sorted({r["tables_sha256"] for r in records})
    if len(digests) > 1:
        failures.append({"round": None, "experiment": None, "error": "tables differ between passes"})
    attempted = sum(len(r["experiments"]) for r in records)
    out: Dict[str, Any] = {
        "experiments": [f"e{n}" for n in WORKLOADS[workload]],
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "tables_sha256": digests[0],
    }
    if trace:
        out["metrics"] = summarize([traced_metrics([pair]) for pair in passes], PER_LAYER)
        raw = merge_raw([traced["raw"] for _, traced in passes])
        out["layer_self_s"] = layer_self_seconds(raw)
        out["edges"] = raw["edges"]
    else:
        out["metrics"] = summarize([untraced_metrics([p], setup) for p in passes], END_TO_END)
        out["setup_probes_s"] = setup
    cpu = [r["cpu_s"] for r in records if not r["trace"]]
    out["cpu_s"] = {"median": statistics.median(cpu), "min": min(cpu), "max": max(cpu), "n": len(cpu)}
    out["passes"] = [_pass_summary(r) for r in records]
    return out


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _terminate(signum: int, _frame: Any) -> None:
    # Unwinding through subprocess.run kills and reaps the running child.
    raise SystemExit(128 + signum)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Paper-suite benchmark (E1-E21 as four workloads).",
        prog="run.py",
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    rounds = parser.add_mutually_exclusive_group()
    rounds.add_argument("--repeat", type=int, help="number of rounds")
    rounds.add_argument("--seconds", type=float, help="time budget for rounds")
    parser.add_argument("--seed", type=int, default=0, help="input seed (0 = committed inputs)")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report per-layer metrics from a traced run",
    )
    parser.add_argument("--out", help="write the full record (JSON) here")
    args = parser.parse_args(argv)
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"run.py: {ROOT} is not a repro checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    trace = bool(args.trace)
    env = _child_env()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        setup = {} if trace else {w: setup_probes(w, env) for w in workloads}
        rounds: List[Dict[str, Any]] = []
        start = time.perf_counter()
        while True:
            shift = len(rounds) % len(workloads)
            results = {}
            for workload in workloads[shift:] + workloads[:shift]:
                untraced = run_pass(workload, args.seed, False, env, work)
                if trace:
                    results[workload] = (untraced, run_pass(workload, args.seed, True, env, work))
                else:
                    results[workload] = untraced
            rounds.append(results)
            if args.repeat is not None:
                if len(rounds) >= args.repeat:
                    break
            else:
                elapsed = time.perf_counter() - start
                if args.seconds is None or elapsed + elapsed / len(rounds) > args.seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    per_workload = {
        w: workload_record(w, [r[w] for r in rounds], setup.get(w, []), trace) for w in workloads
    }
    if trace:
        units = PER_LAYER
        per_round = [traced_metrics([r[w] for w in workloads]) for r in rounds]
    else:
        units = END_TO_END
        probes = [t for w in workloads for t in setup[w]]
        per_round = [untraced_metrics([r[w] for w in workloads], probes) for r in rounds]
    suite_metrics = summarize(per_round, units)
    attempted = sum(rec["attempted"] for rec in per_workload.values())
    failed = sum(rec["failed"] for rec in per_workload.values())
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]} for name, m in suite_metrics.items()},
    }
    if args.out:
        record = {
            "schema": 1,
            "argv": sys.argv[1:] if argv is None else argv,
            "seed": args.seed,
            "trace": trace,
            "rounds": len(rounds),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "workloads": per_workload,
            "result": line,
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for workload, rec in per_workload.items():
        shown = ", ".join(f"{name}={m['median']:.4g}" for name, m in list(rec["metrics"].items())[:6])
        print(f"{workload}: failed {rec['failed']}/{rec['attempted']}; {shown}")
        for failure in rec["failures"]:
            print(f"  FAIL {failure['experiment']}: {failure['error']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
