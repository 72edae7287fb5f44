"""The shipped tree must pass ``repro check deep`` with its baseline.

Same acceptance gate as ``test_self_clean`` but for the whole-program
analyses: the committed deep baseline records pre-existing HOT debt
surfaced by propagation (recorded, not hidden), and no CONC finding
survives.  Fingerprints are path-relative to the repo root,
so everything here runs from there, exactly as CI does.
"""

import json
import os

import pytest

from repro.checks.baseline import load_baseline
from repro.checks.deep import DEFAULT_DEEP_BASELINE, run_deep
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


@pytest.fixture()
def repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)


def test_shipped_tree_is_deep_clean(repo_root):
    baseline = load_baseline(DEFAULT_DEEP_BASELINE)
    result = run_deep(["src"], baseline=baseline, jobs=1)
    assert result.errors == [], [f.format_human() for f in result.errors]
    assert result.warnings == []


def test_deep_baseline_is_hot_debt_only(repo_root):
    baseline = load_baseline(DEFAULT_DEEP_BASELINE)
    result = run_deep(["src"], baseline=baseline, jobs=1)
    families = {f.rule_id[:3] for f in result.baselined}
    assert families <= {"HOT"}  # CONC must be fixed, never baselined


def test_hot_and_worker_analyses_are_populated(repo_root):
    result = run_deep(["src"], jobs=1)
    hot = result.analyses["hot"]
    assert hot["anchored"] > 0
    assert hot["reachable"] >= hot["anchored"]
    assert hot["propagated"] == hot["reachable"] - hot["anchored"]
    assert "repro.axi.port.MasterPort.head" in hot["roots"]
    conc = result.analyses["conc"]
    assert (
        "repro.runner.parallel._timed_execute" in conc["worker_roots"]
    )
    assert conc["worker_reachable"] > 0
    assert conc["async_roots"] > 0


def test_parallel_scan_matches_serial(repo_root):
    serial = run_deep(["src"], jobs=1)
    parallel = run_deep(["src"], jobs=4)  # falls back serial if no pool
    assert [f.fingerprint() for f in serial.findings] == [
        f.fingerprint() for f in parallel.findings
    ]
    assert serial.files == parallel.files


class TestDeepCli:
    def test_clean_exit_zero_and_json_analyses(self, repo_root, capsys):
        code = main(["check", "deep", "src", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["analyses"]["hot"]["reachable"] > 0
        assert payload["analyses"]["hot"]["roots"]
        assert payload["analyses"]["conc"]["worker_reachable"] > 0

    def test_violation_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # empty default deep baseline
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "# repro: hot\ndef walk():\n    return [i for i in range(3)]\n"
        )
        assert main(["check", "deep", str(dirty)]) == 1
        assert "HOT001" in capsys.readouterr().out

    def test_sarif_output_shape(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "# repro: hot\ndef walk():\n    return [i for i in range(3)]\n"
        )
        main(["check", "deep", str(dirty), "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-check-deep"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "HOT001" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "HOT001"
        assert result["locations"][0]["physicalLocation"]["region"][
            "startLine"
        ] == 3

    def test_write_baseline_then_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "# repro: hot\ndef walk():\n    return [i for i in range(3)]\n"
        )
        assert main(["check", "deep", str(dirty), "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["check", "deep", str(dirty)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_unparseable_file_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        assert main(["check", "deep", str(broken)]) == 2
