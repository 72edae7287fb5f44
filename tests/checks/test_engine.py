"""Engine mechanics: suppressions, baseline, fingerprints, the front-end."""

import io
import json
import textwrap

import pytest

from repro.checks.baseline import load_baseline, write_baseline
from repro.checks.engine import LintEngine, all_rules, iter_python_files
from repro.checks.lint import format_report, run_lint
from repro.errors import LintError

VIOLATION = "import random\n"


def write_fixture(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return str(path)


class TestSuppressions:
    def test_same_line_allow(self, tmp_path):
        path = write_fixture(
            tmp_path, "import random  # repro: allow[DET002]\n"
        )
        result = LintEngine().run([path])
        assert result.findings == []
        assert result.suppressed == 1

    def test_line_above_allow(self, tmp_path):
        path = write_fixture(
            tmp_path, "# repro: allow[DET002]\nimport random\n"
        )
        result = LintEngine().run([path])
        assert result.findings == []
        assert result.suppressed == 1

    def test_family_allow(self, tmp_path):
        path = write_fixture(tmp_path, "import random  # repro: allow[DET]\n")
        assert LintEngine().run([path]).findings == []

    def test_wrong_rule_does_not_suppress(self, tmp_path):
        path = write_fixture(
            tmp_path, "import random  # repro: allow[HOT001]\n"
        )
        result = LintEngine().run([path])
        assert [f.rule_id for f in result.findings] == ["DET002"]
        assert result.suppressed == 0

    def test_allow_inside_string_is_not_a_suppression(self, tmp_path):
        path = write_fixture(
            tmp_path,
            '''\
            TEXT = "# repro: allow[DET002]"
            import random
            ''',
        )
        result = LintEngine().run([path])
        assert [f.rule_id for f in result.findings] == ["DET002"]


class TestBaseline:
    def test_grandfathered_finding_reported_separately(self, tmp_path):
        path = write_fixture(tmp_path, VIOLATION)
        first = LintEngine().run([path])
        assert len(first.findings) == 1
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, first.findings)

        second = LintEngine(baseline=load_baseline(baseline_path)).run([path])
        assert second.findings == []
        assert len(second.baselined) == 1

    def test_new_finding_not_covered_by_baseline(self, tmp_path):
        path = write_fixture(tmp_path, VIOLATION)
        baseline_path = str(tmp_path / "baseline.json")
        write_baseline(baseline_path, LintEngine().run([path]).findings)

        # A second identical violation exceeds the baselined count.
        grown = write_fixture(
            tmp_path, VIOLATION + "import os\nimport random\n"
        )
        assert grown == path
        result = LintEngine(baseline=load_baseline(baseline_path)).run([path])
        assert len(result.baselined) == 1
        assert [f.rule_id for f in result.findings] == ["DET002"]

    def test_fingerprint_survives_line_drift(self, tmp_path):
        path = write_fixture(tmp_path, VIOLATION)
        before = LintEngine().run([path]).findings[0]
        write_fixture(tmp_path, "import os\n\n" + VIOLATION)
        after = LintEngine().run([path]).findings[0]
        assert before.line != after.line
        assert before.fingerprint() == after.fingerprint()

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) == {}

    def test_corrupt_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(LintError):
            load_baseline(str(bad))


class TestDriver:
    def test_iter_python_files_sorted_and_filtered(self, tmp_path):
        (tmp_path / "b.py").write_text("")
        (tmp_path / "a.py").write_text("")
        (tmp_path / "notes.txt").write_text("")
        sub = tmp_path / "__pycache__"
        sub.mkdir()
        (sub / "a.cpython-311.pyc").write_text("")
        names = [p.split("/")[-1] for p in iter_python_files([str(tmp_path)])]
        assert names == ["a.py", "b.py"]

    def test_non_python_path_rejected(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("")
        with pytest.raises(LintError):
            list(iter_python_files([str(target)]))

    def test_syntax_error_raises_lint_error(self, tmp_path):
        path = write_fixture(tmp_path, "def broken(:\n")
        with pytest.raises(LintError):
            LintEngine().run([path])

    def test_rule_catalogue_is_populated(self):
        ids = [r.id for r in all_rules()]
        assert ids == sorted(ids)
        families = {r.family for r in all_rules()}
        assert families == {"DET", "HOT", "ERR", "API"}


class TestFrontEnd:
    def test_exit_codes(self, tmp_path):
        dirty = write_fixture(tmp_path, VIOLATION, name="dirty.py")
        clean = write_fixture(tmp_path, "import os\n", name="clean.py")
        sink = io.StringIO()
        assert run_lint([clean], stream=sink) == 0
        assert run_lint([dirty], stream=sink) == 1

    def test_json_format(self, tmp_path):
        path = write_fixture(tmp_path, VIOLATION)
        sink = io.StringIO()
        run_lint([path], fmt="json", stream=sink)
        payload = json.loads(sink.getvalue())
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "DET002"
        assert payload["findings"][0]["line"] == 1

    def test_human_format_names_rule_and_line(self, tmp_path):
        path = write_fixture(tmp_path, "\nimport random\n")
        result = LintEngine().run([path])
        report = format_report(result)
        assert "DET002" in report
        assert f"{path}:2:" in report

    def test_write_baseline_then_clean(self, tmp_path):
        path = write_fixture(tmp_path, VIOLATION)
        baseline = str(tmp_path / "baseline.json")
        sink = io.StringIO()
        assert run_lint(
            [path], baseline_path=baseline, update_baseline=True, stream=sink
        ) == 0
        assert run_lint([path], baseline_path=baseline, stream=sink) == 0
