"""The shipped tree must lint clean with an empty baseline.

This is the acceptance gate for the whole rule set: every rule stays
honest against the codebase it polices, and any future violation
fails here before it fails in CI.
"""

import json
import os

from repro.checks.lint import lint_paths
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
BASELINE = os.path.join(REPO_ROOT, ".repro-lint-baseline.json")


def test_shipped_tree_is_clean():
    result = lint_paths([SRC], baseline_path=BASELINE)
    assert result.errors == [], [f.format_human() for f in result.errors]
    assert result.baselined == []


def test_shipped_baseline_is_empty():
    with open(BASELINE) as fh:
        payload = json.load(fh)
    assert payload == {"version": 1, "findings": {}}


class TestCheckCli:
    def test_lint_clean_exit_zero(self, capsys):
        assert main(["check", "lint", SRC, "--baseline", BASELINE]) == 0
        out = capsys.readouterr().out
        assert "0 errors" in out

    def test_lint_violation_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # keep the default baseline empty
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert main(["check", "lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out
        assert f"{dirty}:1:" in out

    def test_lint_json_format(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        main(["check", "lint", str(dirty), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1

    def test_list_rules(self, capsys):
        assert main(["check", "lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "HOT004", "ERR001", "API002"):
            assert rule_id in out

    def test_unparseable_file_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        assert main(["check", "lint", str(broken)]) == 2

    def test_sanitize_diff_small(self, capsys):
        code = main(
            ["check", "sanitize", "--diff", "--hogs", "1", "--work", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
