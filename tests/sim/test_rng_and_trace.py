"""Unit tests for per-component RNGs and trace recording."""

from repro.sim.rng import component_rng
from repro.sim.trace import TraceRecord, TraceRecorder


class TestComponentRng:
    def test_same_inputs_same_stream(self):
        a = component_rng(7, "acc0")
        b = component_rng(7, "acc0")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_different_streams(self):
        a = component_rng(7, "acc0")
        b = component_rng(7, "acc1")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_different_streams(self):
        a = component_rng(7, "acc0")
        b = component_rng(8, "acc0")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def _record(master="m0", txn_id=0, created=0, issued=1, accepted=2, completed=10):
    return TraceRecord(
        master=master,
        txn_id=txn_id,
        is_write=False,
        addr=0x1000,
        nbytes=64,
        created=created,
        issued=issued,
        accepted=accepted,
        completed=completed,
    )


class TestTraceRecord:
    def test_latency_decomposition(self):
        rec = _record(created=5, accepted=9, completed=30)
        assert rec.latency == 25
        assert rec.queueing_delay == 4


class TestTraceRecorder:
    def test_records_everything_without_filter(self):
        tr = TraceRecorder()
        tr.record(_record(master="a"))
        tr.record(_record(master="b"))
        assert len(tr) == 2

    def test_filter_by_master(self):
        tr = TraceRecorder(masters=["a"])
        tr.record(_record(master="a"))
        tr.record(_record(master="b"))
        assert len(tr) == 1
        assert tr.for_master("a")[0].master == "a"
        assert tr.for_master("b") == []
