"""Unit tests for the on-disk result cache.

Covers the sharded layout, atomic writes, poison handling and the
``REPRO_CACHE`` knob.
"""

import json
import os

from repro.runner import ResultCache, RunSpec, execute_spec
from repro.runner.cache import CACHE_SCHEMA, SHARD_CHARS
from repro.soc.presets import zcu102


def small_spec(seed=1):
    return RunSpec(config=zcu102(num_accels=1, cpu_work=100, seed=seed))


def _tree(root):
    """Every file under ``root``, relative, sorted."""
    found = []
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            found.append(
                os.path.relpath(os.path.join(dirpath, name), root)
            )
    return sorted(found)


class TestCacheBasics:
    def test_miss_on_empty(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        assert cache.get(small_spec()) is None

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        summary = execute_spec(spec)
        cache.put(spec, summary)
        back = cache.get(spec)
        assert back is not None
        assert back.to_json() == summary.to_json()

    def test_keyed_by_content(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec(seed=1)
        cache.put(spec, execute_spec(spec))
        assert cache.get(small_spec(seed=2)) is None

    def test_no_leftover_temp_files(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        cache.put(spec, execute_spec(spec))
        assert [p for p in _tree(tmp_path) if p.endswith(".tmp")] == []


class TestShardedLayout:
    def test_entries_land_in_hash_prefix_shards(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        digest = spec.content_hash()
        path = cache.put(spec, execute_spec(spec))
        assert path == cache.path_for(spec)
        assert _tree(tmp_path) == [
            os.path.join(digest[:SHARD_CHARS], f"{digest}.json")
        ]


class TestPoisonedEntries:
    def _poison(self, cache, spec, text):
        path = cache.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)

    def test_garbage_is_discarded(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        self._poison(cache, spec, "{not json at all")
        assert cache.get(spec) is None
        # The poisoned file is gone, so the next write starts clean.
        assert not os.path.exists(cache.path_for(spec))

    def test_wrong_schema_is_discarded(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        summary = execute_spec(spec)
        payload = {
            "schema": CACHE_SCHEMA + 1,
            "spec_hash": spec.content_hash(),
            "summary": summary.to_dict(),
        }
        self._poison(cache, spec, json.dumps(payload))
        assert cache.get(spec) is None

    def test_hash_mismatch_is_discarded(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        summary = execute_spec(spec)
        payload = {
            "schema": CACHE_SCHEMA,
            "spec_hash": "0" * 64,
            "summary": summary.to_dict(),
        }
        self._poison(cache, spec, json.dumps(payload))
        assert cache.get(spec) is None

    def test_truncated_summary_is_discarded(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = small_spec()
        payload = {
            "schema": CACHE_SCHEMA,
            "spec_hash": spec.content_hash(),
            "summary": {"elapsed": 5},  # masters/dram missing
        }
        self._poison(cache, spec, json.dumps(payload))
        assert cache.get(spec) is None


class TestEnvControl:
    def test_off_disables(self, monkeypatch):
        for value in ("off", "OFF", "0", "no", "false"):
            monkeypatch.setenv("REPRO_CACHE", value)
            assert ResultCache.from_env() is None

    def test_default_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        cache = ResultCache.from_env()
        assert cache is not None
        assert cache.root == ".repro_cache"

    def test_custom_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "alt"))
        cache = ResultCache.from_env()
        assert cache is not None
        assert cache.root == str(tmp_path / "alt")
