"""One pass of one workload, in a fresh interpreter.

Run by ``run.py`` as::

    python -m benchmarks.perf.worker --experiments 1,4,6 --seed 0 \\
        --trace 0 --workdir DIR --out FILE

Each experiment runs through its own ``test_eN_*`` function with a
one-shot stand-in for pytest-benchmark's ``benchmark.pedantic``, so its
shape assertions run and its rendered tables can be diffed.  Result
tables and the result cache go to fresh directories under ``--workdir``
(``REPRO_JOBS=1``, cold cache), so a pass leaves the working tree
untouched.  At seed 0 each table is compared byte for byte with the
committed ``benchmarks/results/`` file; an exception, a failed shape
assertion or a mismatch counts as one failed experiment.

The pass record (JSON, written to ``--out``) holds wall and CPU time,
peak RSS, simulated cycles and host seconds inside ``Simulator.run``,
per-experiment outcomes and table digests, and with ``--trace 1`` the
raw per-layer aggregates of :mod:`benchmarks.perf.tracer`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from typing import Any, Callable, Dict, Iterator, List, Optional

from benchmarks.perf.suite import GOLDEN_DIR, experiment_module
from benchmarks.perf.tracer import Tracer, import_all


class OneShot:
    """Stand-in for pytest-benchmark's fixture: call the function once."""

    def pedantic(self, fn, args=(), kwargs=None, **_options):
        return fn(*args, **(kwargs or {}))


def experiment_test(number: int) -> Callable[[Any], Any]:
    """The ``test_eN_*`` function of experiment ``number``."""
    module = importlib.import_module(experiment_module(number))
    tests = [getattr(module, name) for name in dir(module) if name.startswith(f"test_e{number}_")]
    if len(tests) != 1:
        raise LookupError(f"expected one test_e{number}_* in {module.__name__}, found {len(tests)}")
    return tests[0]


@contextlib.contextmanager
def seed_patch(seed: int) -> Iterator[List[Any]]:
    """XOR ``seed`` into the seed argument of every ``component_rng`` call.

    Patches ``repro.sim.rng.component_rng`` and every loaded module that
    imported it by name (the traffic generators, ``bench_e18``/``e19``),
    so import the experiment modules first.  Yields the patched modules.
    """
    from repro.sim import rng

    original = rng.component_rng

    def component_rng(component_seed: int, name: str):
        return original(component_seed ^ seed, name)

    holders = [
        module
        for module in list(sys.modules.values())
        if getattr(module, "component_rng", None) is original
    ]
    for module in holders:
        module.component_rng = component_rng
    try:
        yield holders
    finally:
        for module in holders:
            module.component_rng = original


class SimClock:
    """Simulated cycles and host seconds spent inside ``Simulator.run``."""

    def __init__(self) -> None:
        self.cycles = 0
        self.seconds = 0.0
        self._depth = 0

    @contextlib.contextmanager
    def installed(self) -> Iterator["SimClock"]:
        from repro.sim.kernel import Simulator

        run = Simulator.__dict__["run"]

        def timed_run(sim, *args, **kwargs):
            if self._depth:
                # run() re-enters itself once when dispatch switches loops.
                return run(sim, *args, **kwargs)
            self._depth += 1
            start_cycle = sim.now
            start = time.perf_counter()
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.cycles += sim.now - start_cycle
                self._depth -= 1

        Simulator.run = timed_run
        try:
            yield self
        finally:
            Simulator.run = run


@contextlib.contextmanager
def isolated(workdir: str) -> Iterator[None]:
    """Serial runner, cold cache and result tables under ``workdir``."""
    import benchmarks.common as common

    saved_env = {name: os.environ.get(name) for name in ("REPRO_JOBS", "REPRO_CACHE")}
    saved = (common.RESULTS_DIR, common._RUNNER)
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE"] = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    common.RESULTS_DIR = tempfile.mkdtemp(prefix="results-", dir=workdir)
    common._RUNNER = None
    try:
        yield
    finally:
        common.RESULTS_DIR, common._RUNNER = saved
        for name, value in saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def golden_mismatch(tables: Dict[str, bytes]) -> Optional[str]:
    """Why ``tables`` (name -> content) differ from the committed ones."""
    if not tables:
        return "no table written"
    for name, content in tables.items():
        golden = os.path.join(GOLDEN_DIR, name)
        if not os.path.exists(golden):
            return f"{name}: no committed table"
        with open(golden, "rb") as fh:
            if fh.read() != content:
                return f"{name}: differs from benchmarks/results/{name}"
    return None


def _failure(exc: BaseException) -> str:
    frames = traceback.extract_tb(exc.__traceback__)
    where = f" at {os.path.basename(frames[-1].filename)}:{frames[-1].lineno}" if frames else ""
    kind = "shape assertion failed" if isinstance(exc, AssertionError) else type(exc).__name__
    detail = str(exc).strip().splitlines()
    return f"{kind}{where}" + (f": {detail[0]}" if detail else "")


def run_experiment(number: int, seed: int, workdir: str) -> Dict[str, Any]:
    """Run one experiment's test function and check its tables."""
    import benchmarks.common as common

    tables_dir = tempfile.mkdtemp(prefix=f"tables-e{number}-", dir=workdir)
    common.RESULTS_DIR = tables_dir
    error = None
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            experiment_test(number)(OneShot())
    except Exception as exc:  # any failure of one experiment is recorded, not fatal
        error = _failure(exc)
    tables = {}
    for name in sorted(os.listdir(tables_dir)):
        if name.endswith(".txt"):
            with open(os.path.join(tables_dir, name), "rb") as fh:
                tables[name] = fh.read()
    if error is None and seed == 0:
        error = golden_mismatch(tables)
    digests = {name: hashlib.sha256(content).hexdigest() for name, content in tables.items()}
    return {"id": f"e{number}", "error": error, "tables": digests}


def run_pass(experiments: List[int], seed: int, trace: bool, workdir: str) -> Dict[str, Any]:
    """Run ``experiments`` once each and return the pass record."""
    # Import everything first, so the seed patch sees every holder.
    for number in experiments:
        experiment_test(number)
    if trace:
        import_all()
    tracer = Tracer() if trace else None
    clock = SimClock()
    records = []
    with isolated(workdir), seed_patch(seed), clock.installed():
        if tracer is not None:
            tracer.install()
        try:
            cpu_start = time.process_time()
            start = time.perf_counter()
            for number in experiments:
                t0, cycles0, sim_s0 = time.perf_counter(), clock.cycles, clock.seconds
                if tracer is None:
                    record = run_experiment(number, seed, workdir)
                else:
                    record = tracer.span(
                        "harness.experiment", "harness", run_experiment, number, seed, workdir
                    )
                    tracer.fold()
                record.update(
                    wall_s=time.perf_counter() - t0,
                    sim_cycles=clock.cycles - cycles0,
                    sim_run_s=clock.seconds - sim_s0,
                )
                records.append(record)
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
        finally:
            if tracer is not None:
                tracer.uninstall()
    digest = hashlib.sha256()
    for record in records:
        for name, sha in record["tables"].items():
            digest.update(f"{name} {sha}\n".encode())
    return {
        "trace": trace,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_cycles": clock.cycles,
        "sim_run_s": clock.seconds,
        "experiments": records,
        "tables_sha256": digest.hexdigest(),
        "raw": tracer.snapshot() if tracer is not None else None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiments", required=True, help="comma-separated numbers")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    experiments = [int(n) for n in args.experiments.split(",")]
    record = run_pass(experiments, args.seed, bool(args.trace), args.workdir)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
