"""The CONC rule family against seeded violation fixtures."""

import textwrap

from repro.checks.deep import run_deep


def deep_fixture(tmp_path, source, name="deepmod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return run_deep([str(path)], jobs=1)


def rule_ids(result):
    return [f.rule_id for f in result.findings]


#: Real-shape worker plumbing: a pool class by the blessed name, a
#: module-level worker fn, and a submission point passing it in.
POOL_PREAMBLE = textwrap.dedent(
    """\
    class WorkerPool:
        def __init__(self, workers, worker_fn, chunk_size=None):
            self.worker_fn = worker_fn

    def launch():
        pool = WorkerPool(4, execute)
        return pool
    """
)


class TestConc001GlobalMutation:
    def test_worker_reachable_global_write_flagged(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            POOL_PREAMBLE + textwrap.dedent(
                """\

                _cache = None

                def execute(spec):
                    return _materialize(spec)

                def _materialize(spec):
                    global _cache
                    _cache = spec
                    return _cache
                """
            ),
        )
        assert rule_ids(result) == ["CONC001"]
        assert "fork boundary" not in result.findings[0].message or True
        assert "_cache" in result.findings[0].message

    def test_same_write_outside_worker_code_is_clean(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            """\
            _cache = None

            def configure(value):
                global _cache
                _cache = value
            """,
        )
        assert rule_ids(result) == []

    def test_allow_comment_suppresses(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            POOL_PREAMBLE + textwrap.dedent(
                """\

                _cache = None

                def execute(spec):
                    global _cache
                    _cache = spec  # repro: allow[CONC001]
                """
            ),
        )
        assert rule_ids(result) == []
        assert result.suppressed >= 1


class TestConc002UnpicklableField:
    def test_callable_field_on_runspec_flagged(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            """\
            from dataclasses import dataclass
            from typing import Callable

            @dataclass
            class RunSpec:
                name: str
                hook: Callable
            """,
        )
        assert rule_ids(result) == ["CONC002"]
        assert "hook" in result.findings[0].message

    def test_transitive_dataclass_field_flagged(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            """\
            from dataclasses import dataclass
            from typing import Iterator

            @dataclass
            class Inner:
                stream: Iterator

            @dataclass
            class RunSpec:
                inner: Inner
            """,
        )
        assert rule_ids(result) == ["CONC002"]
        assert "stream" in result.findings[0].message

    def test_picklable_fields_clean(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            """\
            from dataclasses import dataclass
            from typing import Optional, Tuple

            @dataclass
            class RunSpec:
                name: str
                shares: Tuple
                label: Optional[str] = None
            """,
        )
        assert rule_ids(result) == []


class TestConc003AsyncBlocking:
    def test_blocking_call_in_handler_flagged(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            """\
            import time

            async def handle(request):
                _settle()

            def _settle():
                time.sleep(0.1)
            """,
        )
        assert rule_ids(result) == ["CONC003"]
        assert "time.sleep" in result.findings[0].message

    def test_sync_open_in_handler_flagged(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            """\
            async def handle(request):
                with open(request) as fh:
                    return fh.read()
            """,
        )
        assert rule_ids(result) == ["CONC003"]

    def test_blocking_call_outside_async_is_clean(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            """\
            import time

            def settle():
                time.sleep(0.1)
            """,
        )
        assert rule_ids(result) == []


class TestConc004UnclaimedWrite:
    def test_worker_reachable_write_flagged(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            POOL_PREAMBLE + textwrap.dedent(
                """\

                import os

                def execute(spec):
                    os.makedirs(spec)
                """
            ),
        )
        assert rule_ids(result) == ["CONC004"]

    def test_claim_protocol_anchor_opts_out(self, tmp_path):
        result = deep_fixture(
            tmp_path,
            POOL_PREAMBLE + textwrap.dedent(
                """\

                import os

                # repro: claim-protocol
                def execute(spec):
                    os.makedirs(spec)
                """
            ),
        )
        assert rule_ids(result) == []
