"""Self-test of the paper-suite benchmark harness.

Run with ``PYTHONPATH=src:. python -m pytest benchmarks/perf`` (a few
seconds).  It checks the harness itself, not the simulator: that
tracing attributes every callback and changes no result, that every
traced boundary still exists, that the seed patch reaches every
holder, that a pass leaves ``benchmarks/results/`` untouched, and that
the names the harness reports are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from benchmarks.perf import suite, tracer
from benchmarks.perf.run import untraced_metrics
from benchmarks.perf.worker import experiment_test, isolated, run_pass, seed_patch


def _tree_digest(path: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _small_config():
    from benchmarks.common import tc_spec
    from repro.soc.presets import zcu102

    return zcu102(num_accels=2, cpu_work=300, accel_regulator=tc_spec(0.1, window_cycles=256))


@pytest.fixture(scope="module")
def traced_run():
    """A small regulated zcu102 run, traced; plus its untraced twin."""
    from repro.soc.experiment import run_experiment

    plain = run_experiment(_small_config()).summary().to_dict()
    trace = tracer.Tracer()
    trace.install()
    try:
        patched = {(cls, name) for cls, name, _ in trace._patches}
        result = trace.span("harness.experiment", "harness", run_experiment, _small_config())
        trace.fold()
    finally:
        trace.uninstall()
    return plain, result.summary().to_dict(), trace.snapshot(), patched


def test_workloads_run_each_experiment_once():
    numbers = sorted(n for experiments in suite.WORKLOADS.values() for n in experiments)
    assert numbers == list(suite.SUITE)
    for number in numbers:
        experiment_test(number)


def test_every_boundary_method_exists_and_is_patched(traced_run):
    *_, patched = traced_run
    for layer, target, methods in tracer.BOUNDARIES:
        assert layer in {l for _, l in tracer.LAYER_PREFIXES}
        base = tracer.resolve(target)
        for method in methods:
            assert callable(getattr(base, method, None)), f"{target}.{method} is gone"
            assert any(
                issubclass(cls, base) and name == method for cls, name in patched
            ), f"{target}.{method} was not patched"
    for target in tracer.COLLECTED.values():
        tracer.resolve(target)


def test_small_run_attributes_every_callback(traced_run):
    plain, traced, raw, _ = traced_run
    assert traced == plain, "tracing changed a simulation result"
    metrics = tracer.layer_metrics(raw, traced_wall_s=1.0, untraced_wall_s=1.0)
    assert metrics["trace.unattributed_share"] == 0
    assert metrics["sim.events"] == raw["stats"]["events_dispatched"] > 0
    assert metrics["axi.txns"] == metrics["traffic.issued"] > 0
    assert metrics["regulation.checks_per_txn"] > 0
    assert 0 < metrics["regulation.admit_ratio"] < 1
    assert metrics["dram.requests"] > 0 and 0 < metrics["dram.row_hit_rate"] <= 1
    assert metrics["soc.builds"] == 1


def test_uninstall_restores_classes():
    from repro.axi.port import MasterPort
    from repro.sim.kernel import Simulator

    before = (Simulator.schedule, Simulator.run, MasterPort.head, MasterPort.__init__)
    trace = tracer.Tracer()
    trace.install()
    assert Simulator.schedule is not before[0]
    trace.uninstall()
    assert (Simulator.schedule, Simulator.run, MasterPort.head, MasterPort.__init__) == before


def test_seed_patch_reaches_every_holder():
    for number in (18, 19):
        experiment_test(number)
    tracer.import_all()
    from repro.sim import rng

    original = rng.component_rng
    with seed_patch(5) as holders:
        assert rng.component_rng is not original
        stale = [
            name
            for name, module in list(sys.modules.items())
            if getattr(module, "component_rng", None) is original
        ]
        assert not stale
        names = {module.__name__ for module in holders}
        assert {
            "repro.sim.rng",
            "repro.traffic.workloads",
            "benchmarks.bench_e18_open_loop",
            "benchmarks.bench_e19_split_channels",
        } <= names
        assert rng.component_rng(3, "x").random() == original(3 ^ 5, "x").random()
    assert rng.component_rng is original


def test_pass_leaves_results_untouched(tmp_path):
    import benchmarks.common as common
    from repro.soc.presets import zcu102

    golden = _tree_digest(suite.GOLDEN_DIR)
    record = run_pass([6, 19], seed=0, trace=False, workdir=str(tmp_path))
    assert [e["error"] for e in record["experiments"]] == [None, None]
    assert record["sim_cycles"] > 0 and record["peak_rss_mb"] > 0
    # The runner's telemetry report and cache land in the pass's
    # directories too (E6/E19 do not batch through the runner).
    with isolated(str(tmp_path)):
        spec = common.open_spec(zcu102(num_cpus=1, num_accels=1, cpu_work=1), 2_000)
        common.run_specs([spec])
        assert common.RESULTS_DIR.startswith(str(tmp_path))
        assert os.path.exists(os.path.join(common.RESULTS_DIR, "runner_telemetry.json"))
        assert os.listdir(os.environ["REPRO_CACHE"]), "cache entry not written"
        assert os.environ["REPRO_CACHE"].startswith(str(tmp_path))
    assert _tree_digest(suite.GOLDEN_DIR) == golden


def test_names_match_benchmark_json(traced_run):
    *_, raw, _ = traced_run
    with open(os.path.join(suite.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == suite.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == suite.PER_LAYER
    one_pass = {"wall_s": 1.0, "peak_rss_mb": 40.0, "sim_cycles": 10, "sim_run_s": 0.5}
    assert list(untraced_metrics([one_pass], [0.3])) == list(suite.END_TO_END)
    assert list(tracer.layer_metrics(raw, 1.0, 1.0)) == list(suite.PER_LAYER)
