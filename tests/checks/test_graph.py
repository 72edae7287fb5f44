"""Call-graph construction: edges, dispatch, anchors, propagation."""

import textwrap

from repro.checks.deep import run_deep
from repro.checks.graph import ProjectIndex, extract_symbols


def index_fixture(tmp_path, source, name="graphmod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return ProjectIndex([extract_symbols(str(path))])


class TestEdges:
    def test_plain_name_call(self, tmp_path):
        index = index_fixture(
            tmp_path,
            """\
            def callee():
                pass

            def caller():
                callee()
            """,
        )
        assert index.callees("graphmod.caller") == {"graphmod.callee"}

    def test_decorated_function_still_resolves(self, tmp_path):
        index = index_fixture(
            tmp_path,
            """\
            import functools

            @functools.lru_cache(maxsize=None)
            def cached():
                pass

            def caller():
                cached()
            """,
        )
        assert index.callees("graphmod.caller") == {"graphmod.cached"}

    def test_method_through_self(self, tmp_path):
        index = index_fixture(
            tmp_path,
            """\
            class Engine:
                def step(self):
                    self._advance()

                def _advance(self):
                    pass
            """,
        )
        assert index.callees("graphmod.Engine.step") == {
            "graphmod.Engine._advance"
        }

    def test_closure_and_lambda_count_as_edges(self, tmp_path):
        index = index_fixture(
            tmp_path,
            """\
            def outer():
                def inner():
                    helper()
                return inner

            def helper():
                pass
            """,
        )
        assert "graphmod.outer.inner" in index.callees("graphmod.outer")
        assert index.callees("graphmod.outer.inner") == {"graphmod.helper"}

    def test_attribute_receiver_via_param_annotation(self, tmp_path):
        index = index_fixture(
            tmp_path,
            """\
            class Queue:
                def pop(self):
                    pass

            def drain(q: Queue):
                q.pop()
            """,
        )
        assert index.callees("graphmod.drain") == {"graphmod.Queue.pop"}

    def test_attribute_receiver_via_constructor_assignment(self, tmp_path):
        index = index_fixture(
            tmp_path,
            """\
            class Queue:
                def pop(self):
                    pass

            def drain():
                q = Queue()
                q.pop()
            """,
        )
        assert index.callees("graphmod.drain") == {"graphmod.Queue.pop"}

    def test_self_attr_type_from_init(self, tmp_path):
        index = index_fixture(
            tmp_path,
            """\
            class Queue:
                def pop(self):
                    pass

            class Engine:
                def __init__(self):
                    self._queue = Queue()

                def step(self):
                    self._queue.pop()
            """,
        )
        assert index.callees("graphmod.Engine.step") == {
            "graphmod.Queue.pop"
        }


class TestDynamicDispatch:
    SCHEDULERS = """\
        class Base:
            def pop(self):
                raise NotImplementedError

        class Heap(Base):
            def pop(self):
                pass

        class Calendar(Base):
            def pop(self):
                pass

        BACKENDS = {"heap": Heap, "calendar": Calendar}

        def run(sched: Base):
            sched.pop()

        def make(name):
            cls = BACKENDS[name]
            return cls()
        """

    def test_base_typed_receiver_fans_to_overrides(self, tmp_path):
        index = index_fixture(tmp_path, self.SCHEDULERS)
        assert index.callees("graphmod.run") == {
            "graphmod.Base.pop",
            "graphmod.Heap.pop",
            "graphmod.Calendar.pop",
        }

    def test_registry_lookup_dispatches_to_members(self, tmp_path):
        index = index_fixture(
            tmp_path,
            textwrap.dedent(self.SCHEDULERS) + textwrap.dedent(
                """\

                def dispatch(name):
                    BACKENDS[name](), None
                    inst = BACKENDS[name]
                    inst.pop()
                """
            ),
        )
        callees = index.callees("graphmod.dispatch")
        assert "graphmod.Heap.pop" in callees
        assert "graphmod.Calendar.pop" in callees


class TestReachability:
    def test_cycles_terminate(self, tmp_path):
        index = index_fixture(
            tmp_path,
            """\
            def ping():
                pong()

            def pong():
                ping()
            """,
        )
        assert index.reachable(["graphmod.ping"]) == {
            "graphmod.ping",
            "graphmod.pong",
        }

    def test_hot_anchor_propagates_transitively(self, tmp_path):
        path = tmp_path / "hotmod.py"
        path.write_text(textwrap.dedent(
            """\
            # repro: hot
            def root():
                middle()

            def middle():
                leaf()

            def leaf():
                x = [i for i in range(4)]
                return x
            """
        ))
        result = run_deep([str(path)])
        assert [f.rule_id for f in result.findings] == ["HOT001"]
        assert result.analyses["hot"]["reachable"] == 3
        assert result.analyses["hot"]["roots"] == ["hotmod.root"]

    def test_removing_anchor_shrinks_hot_set(self, tmp_path):
        anchored = textwrap.dedent(
            """\
            # repro: hot
            def root():
                middle()

            def middle():
                leaf()

            def leaf():
                pass

            def unrelated():
                pass
            """
        )
        path = tmp_path / "hotmod.py"
        path.write_text(anchored)
        with_anchor = run_deep([str(path)])
        path.write_text(anchored.replace("# repro: hot\n", ""))
        without_anchor = run_deep([str(path)])
        assert with_anchor.analyses["hot"]["reachable"] == 3
        assert without_anchor.analyses["hot"]["reachable"] == 0
        assert without_anchor.analyses["hot"]["roots"] == []
