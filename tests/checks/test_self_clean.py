"""The shipped tree must lint clean with an empty baseline.

This is the acceptance gate for the whole rule set: every rule stays
honest against the codebase it polices, and any future violation
fails here before it fails in CI.
"""

import json
import os
import subprocess
import sys

from repro.checks.engine import build_context, iter_python_files
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


def test_hot_anchors_cover_the_per_event_helpers():
    # HOT rules check only anchored functions, so the helpers the
    # dispatch loop and the port call per event carry their own anchor.
    hot = set()
    for path in iter_python_files([SRC]):
        ctx = build_context(path)
        module = ctx.rel[: -len(".py")].replace("/", ".")
        hot.update(f"{module}.{fn.qualname}" for fn in ctx.functions_with("hot"))
    assert {
        "repro.axi.port.MasterPort.head",
        "repro.sim.kernel.Simulator.schedule",
        "repro.axi.interconnect.Interconnect.kick",
        "repro.dram.controller.DramController.enqueue",
        "repro.regulation.token_bucket.TokenBucket._advance",
        "repro.regulation.tightly_coupled.TightlyCoupledRegulator.charge",
    } <= hot


def test_import_repro_leaves_the_lint_engine_unloaded():
    code = (
        "import sys, repro; "
        "sys.exit('repro.checks.engine' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr or "repro.checks.engine loaded"


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
