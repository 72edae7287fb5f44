"""Tests for runner telemetry reports and the runner's accounting."""

import json

from repro.runner import ParallelRunner, ResultCache, RunSpec
from repro.soc.presets import zcu102
from repro.telemetry.runreport import (
    REPORT_SCHEMA,
    RunnerTelemetry,
    write_runner_report,
)


class _FakeStats:
    total = 4
    executed = 2
    cache_hits = 1
    cache_misses = 3
    cache_poisoned = 1
    deduped = 1
    wall_seconds = 4.0
    spec_seconds = [1.0, 2.0]


class _LegacyStats:
    """Stats shape predating the per-batch cache counters."""

    total = 1
    executed = 1
    cache_hits = 0
    deduped = 0
    wall_seconds = 1.0
    spec_seconds = [1.0]


class _FakeRunner:
    last_stats = _FakeStats()


def _spec(work, accels=1):
    return RunSpec(config=zcu102(num_accels=accels, cpu_work=work))


class TestFromRunner:
    def test_snapshot_math(self):
        t = RunnerTelemetry.from_runner(_FakeRunner())
        assert t.total == 4
        assert t.cache_misses == 3
        assert t.cache_poisoned == 1
        # 3 simulating seconds out of 4 wall seconds.
        assert t.utilization == 0.75

    def test_missing_cache_counters_default_zero(self):
        runner = _FakeRunner()
        runner.last_stats = _LegacyStats()
        t = RunnerTelemetry.from_runner(runner)
        assert t.cache_misses == 0
        assert t.cache_poisoned == 0

    def test_to_dict_carries_schema(self):
        payload = RunnerTelemetry.from_runner(_FakeRunner()).to_dict()
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["spec_seconds"] == [1.0, 2.0]


class TestWrite:
    def test_write_runner_report(self, tmp_path):
        path = str(tmp_path / "report.json")
        write_runner_report(_FakeRunner(), path, extra={"suite": "unit"})
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["suite"] == "unit"
        assert payload["deduped"] == 1
        assert "mode" not in payload and "workers" not in payload


class TestRealRunnerAccounting:
    def test_serial_batch_records_timings(self):
        runner = ParallelRunner(cache=None)
        runner.run([_spec(100), _spec(150)])
        stats = runner.last_stats
        assert stats.executed == 2
        assert len(stats.spec_seconds) == 2
        assert all(s > 0 for s in stats.spec_seconds)
        assert stats.wall_seconds >= max(stats.spec_seconds)
        t = RunnerTelemetry.from_runner(runner)
        assert 0.0 < t.utilization <= 1.0

    def test_cache_counts_misses_hits_and_poison(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "cache"))
        runner = ParallelRunner(cache=cache)
        spec = _spec(100)
        runner.run([spec])
        assert (cache.hits, cache.misses, cache.poisoned) == (0, 1, 0)
        runner.run([spec])
        assert (cache.hits, cache.misses, cache.poisoned) == (1, 1, 0)
        # The warm batch's report must not re-attribute the first
        # batch's miss: stats carry per-batch deltas, not the cache's
        # cumulative lifetime counters.
        warm = RunnerTelemetry.from_runner(runner)
        assert warm.cache_hits == 1
        assert warm.cache_misses == 0
        assert warm.cache_poisoned == 0
        # Poison the entry: next lookup discards and recomputes.
        with open(cache.path_for(spec), "w") as fh:
            fh.write("{not json")
        runner.run([spec])
        assert cache.poisoned == 1
        assert cache.misses == 2
        t = RunnerTelemetry.from_runner(runner)
        assert t.cache_misses == 1
        assert t.cache_poisoned == 1
