"""Fixture-driven tests: one positive/suppressed/clean trio per rule family.

Fixtures live outside the ``repro`` package (``repro_relpath`` returns
None for them), which deliberately puts them in scope for every rule.
"""

import textwrap

from repro.checks.engine import LintEngine, build_context


def lint_source(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return LintEngine().run([str(path)])


def rule_ids(result):
    return [f.rule_id for f in result.findings]


class TestDetRules:
    def test_wall_clock_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            def stamp():
                return time.time()
            """,
        )
        assert rule_ids(result) == ["DET001"]
        assert result.findings[0].line == 4

    def test_perf_counter_allowed(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import time

            def stamp():
                return time.perf_counter()
            """,
        )
        assert rule_ids(result) == []

    def test_global_random_import_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import random

            def draw():
                return random.random()
            """,
        )
        assert "DET002" in rule_ids(result)
        assert result.findings[0].line == 1

    def test_from_random_import_flagged(self, tmp_path):
        result = lint_source(tmp_path, "from random import Random\n")
        assert rule_ids(result) == ["DET002"]

    def test_rng_module_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        path = pkg / "rng.py"
        path.write_text("import random\n")
        result = LintEngine().run([str(path)])
        assert rule_ids(result) == []

    def test_env_read_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            import os

            def knob():
                return os.environ.get("X"), os.environ["Y"]
            """,
        )
        assert rule_ids(result) == ["DET003", "DET003"]

    def test_env_read_exempt_in_config_layer(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            # repro: config-layer
            import os

            def knob():
                return os.environ.get("X")
            """,
        )
        assert rule_ids(result) == []

    def test_set_iteration_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def drain(pending):
                for item in set(pending):
                    item()
                return [x for x in {1, 2, 3}]
            """,
        )
        assert rule_ids(result) == ["DET004", "DET004"]

    def test_set_iteration_scoped_to_order_sensitive_packages(self, tmp_path):
        pkg = tmp_path / "repro" / "analysis"
        pkg.mkdir(parents=True)
        path = pkg / "metrics.py"
        path.write_text("def f(s):\n    for x in set(s):\n        x()\n")
        result = LintEngine().run([str(path)])
        assert rule_ids(result) == []


class TestHotRules:
    def test_cold_function_unchecked(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def cold(self):
                return [x for x in self.items]
            """,
        )
        assert rule_ids(result) == []

    def test_comprehension_in_hot_path(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            # repro: hot
            def dispatch(self):
                return [x for x in self.items]
            """,
        )
        assert rule_ids(result) == ["HOT001"]
        assert result.findings[0].line == 3

    def test_closure_in_hot_path(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            # repro: hot
            def dispatch(self):
                fire = lambda: self.count + 1
                return fire()
            """,
        )
        assert rule_ids(result) == ["HOT002"]

    def test_kwargs_fanout_in_hot_path(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            # repro: hot
            def dispatch(self, kw):
                self.push(**kw)
            """,
        )
        assert rule_ids(result) == ["HOT003"]

    def test_repeated_chain_in_hot_loop(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            # repro: hot
            def drain(self):
                while True:
                    event = self.queue.pop()
                    if event is None:
                        break
                    self.queue.pop()
            """,
        )
        assert rule_ids(result) == ["HOT004"]
        assert "self.queue.pop" in result.findings[0].message

    def test_prebound_chain_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            # repro: hot
            def drain(self):
                pop = self.queue.pop
                record = self.trace.append
                while True:
                    record(pop())
            """,
        )
        assert rule_ids(result) == []

    def test_hot_path_decorator_anchors(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            @hot_path
            def dispatch(self):
                return {x for x in self.items}
            """,
        )
        assert rule_ids(result) == ["HOT001"]


class TestErrRules:
    def test_blanket_raise_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def fail():
                raise RuntimeError("boom")
            """,
        )
        assert rule_ids(result) == ["ERR001"]
        assert result.findings[0].line == 2

    def test_precise_builtin_allowed(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def fail():
                raise ValueError("boom")
            """,
        )
        assert rule_ids(result) == []

    def test_bare_reraise_allowed(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def fail():
                try:
                    pass
                except Exception:
                    raise
            """,
        )
        assert rule_ids(result) == []


class TestApiRules:
    def test_wildcard_import_flagged(self, tmp_path):
        result = lint_source(tmp_path, "from os.path import *\n")
        assert rule_ids(result) == ["API001"]

    def test_mutable_default_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def collect(into=[], *, labels={}):
                return into, labels
            """,
        )
        assert rule_ids(result) == ["API002", "API002"]

    def test_none_default_allowed(self, tmp_path):
        result = lint_source(
            tmp_path,
            """\
            def collect(into=None, count=0, name="x"):
                return into
            """,
        )
        assert rule_ids(result) == []


class TestFunctionAnchors:
    def test_anchor_binds_through_decorators(self, tmp_path):
        path = tmp_path / "anchored.py"
        path.write_text(
            textwrap.dedent(
                """\
                # repro: hot
                @property
                def value(self):
                    return [x for x in self.items]
                """
            )
        )
        ctx = build_context(str(path))
        assert [fn.qualname for fn in ctx.functions_with("hot")] == ["value"]
