"""Tests for the smoke benchmark's corrupt-history quarantine.

``load_history`` guards ``BENCH_runner.json``, the performance
trajectory that accumulates across changes: one corrupted write must
never silently discard it nor block future appends.
"""

import json
import os

from scripts.bench_smoke import load_history


def _record(heap, stamp="t"):
    return {
        "schema": 8,
        "kind": "kernel_throughput",
        "heap_events_s": heap,
        "timestamp": stamp,
    }


class TestLoadHistoryQuarantine:
    def test_missing_file(self, tmp_path):
        assert load_history(str(tmp_path / "absent.json")) == ([], None)

    def test_valid_history_kept(self, tmp_path):
        log = tmp_path / "log.json"
        records = [_record(1)]
        log.write_text(json.dumps(records))
        assert load_history(str(log)) == (records, None)

    def test_corrupt_json_quarantined(self, tmp_path):
        log = tmp_path / "log.json"
        log.write_text('[{"truncated": ')
        history, quarantined = load_history(str(log))
        assert history == []
        assert quarantined == str(log) + ".corrupt-1"
        assert not log.exists()
        # The evidence survives verbatim.
        assert open(quarantined).read() == '[{"truncated": '

    def test_non_list_json_quarantined(self, tmp_path):
        log = tmp_path / "log.json"
        log.write_text('{"kind": "not-a-list"}')
        history, quarantined = load_history(str(log))
        assert history == []
        assert os.path.exists(quarantined)

    def test_quarantine_suffix_increments(self, tmp_path):
        log = tmp_path / "log.json"
        (tmp_path / "log.json.corrupt-1").write_text("old junk")
        log.write_text("junk")
        _, quarantined = load_history(str(log))
        assert quarantined == str(log) + ".corrupt-2"
        assert open(quarantined).read() == "junk"
