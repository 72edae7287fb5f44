"""Tests for the runner: ordering, dedup and caching.

The determinism contract (same seed => byte-identical summaries from
direct execution, the runner, and a cache hit) is asserted here; it
is what makes the result cache safe to use in every benchmark.
"""

import hashlib
from types import SimpleNamespace

import pytest

import repro.runner.spec as spec_module
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    execute_spec,
)
from repro.soc.presets import zcu102


def small_spec(seed=1, accels=1):
    return RunSpec(config=zcu102(num_accels=accels, cpu_work=100, seed=seed))


@pytest.fixture(scope="module")
def spec_batch():
    return [small_spec(seed=s) for s in (1, 2, 3)]


@pytest.fixture(scope="module")
def serial_batch(spec_batch):
    """Ground truth: the batch executed by the plain in-process path."""
    return [execute_spec(s) for s in spec_batch]


class TestDeterminism:
    def test_serial_runner_matches_direct_execution(
        self, spec_batch, serial_batch
    ):
        runner = ParallelRunner()
        out = runner.run(list(spec_batch))
        assert [s.to_json() for s in out] == [
            s.to_json() for s in serial_batch
        ]
        assert runner.last_stats.executed == len(spec_batch)

    def test_cache_hit_matches_serial_byte_identically(
        self, spec_batch, serial_batch, tmp_path
    ):
        cache = ResultCache(root=str(tmp_path))
        runner = ParallelRunner(cache=cache)
        runner.run(list(spec_batch))  # populate
        out = runner.run(list(spec_batch))  # all hits, via JSON round-trip
        assert runner.last_stats.executed == 0
        assert runner.last_stats.cache_hits == len(spec_batch)
        assert [s.to_json() for s in out] == [
            s.to_json() for s in serial_batch
        ]

    def test_summary_json_roundtrip_is_identity(self, serial_batch):
        for summary in serial_batch:
            back = type(summary).from_json(summary.to_json())
            assert back.to_json() == summary.to_json()
            assert back == summary


class TestOrderingAndDedup:
    def test_results_in_spec_order(self, spec_batch, serial_batch):
        reversed_out = ParallelRunner().run(list(reversed(spec_batch)))
        assert [s.to_json() for s in reversed_out] == [
            s.to_json() for s in reversed(serial_batch)
        ]

    def test_identical_specs_run_once(self):
        spec = small_spec()
        runner = ParallelRunner()
        out = runner.run([spec, spec, spec])
        assert runner.last_stats.executed == 1
        assert runner.last_stats.deduped == 2
        assert out[0].to_json() == out[1].to_json() == out[2].to_json()

    def test_empty_batch(self):
        runner = ParallelRunner()
        assert runner.run([]) == []
        assert runner.last_stats.total == 0


class TestCacheIntegration:
    def test_poisoned_entry_recomputed_not_fatal(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        runner = ParallelRunner(cache=cache)
        first = runner.run([spec])[0]
        with open(cache.path_for(spec), "w") as fh:
            fh.write('{"schema": 1, "spec_hash": "bad"')  # torn write
        again = runner.run([spec])[0]
        assert runner.last_stats.executed == 1  # recomputed
        assert again.to_json() == first.to_json()
        # And the entry healed: a third run is a pure cache hit.
        runner.run([spec])
        assert runner.last_stats.executed == 0

    def test_warm_cache_runs_zero_simulations(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        specs = [small_spec(seed=s) for s in (4, 5)]
        ParallelRunner(cache=cache).run(specs)
        runner = ParallelRunner(cache=cache)
        runner.run(specs)
        assert runner.last_stats.executed == 0

    def test_cache_miss_hashes_the_spec_once(self, tmp_path, monkeypatch):
        # run -> get -> put all key on the same digest; the spec is
        # frozen, so one sha256 serves the whole batch.
        digests = []

        def counting_sha256(data):
            digests.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(
            spec_module, "hashlib", SimpleNamespace(sha256=counting_sha256)
        )
        runner = ParallelRunner(cache=ResultCache(root=str(tmp_path)))
        runner.run([small_spec(seed=6)])
        assert runner.last_stats.cache_misses == 1
        assert runner.last_stats.executed == 1
        assert len(digests) == 1


class TestMonitorSpecs:
    def test_monitor_bins_survive_all_paths(self, tmp_path):
        spec = RunSpec(
            config=zcu102(num_accels=1, cpu_work=100),
            monitor_master="acc0",
            monitor_bin_cycles=256,
        )
        direct = execute_spec(spec)
        assert direct.monitor_bins is not None
        assert direct.monitor_bin_cycles == 256
        assert sum(direct.monitor_bins) > 0
        cache = ResultCache(root=str(tmp_path))
        runner = ParallelRunner(cache=cache)
        runner.run([spec])
        cached = runner.run([spec])[0]
        assert cached.monitor_bins == direct.monitor_bins
