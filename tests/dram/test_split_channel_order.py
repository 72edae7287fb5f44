"""The controller's age-ordered queue under split AR/AW channels.

With split address channels the interconnect can accept a read and a
write in one arbitration pass, and the one enqueued second may carry
the lower transaction id.  The controller then inserts it ahead of the
tail so that its queue stays ordered by ``(arrival, txn_id)``, which
its single-scan pick relies on.
"""

from repro.axi.interconnect import InterconnectConfig
from repro.axi.port import MasterPort, PortConfig
from repro.axi.txn import Transaction
from tests.conftest import MiniSystem
from tests.dram.reference_pick import _age


def _split_system(sim):
    """Three split-channel masters, two thirds writes: two stream
    within rows, one strides across rows (row conflicts)."""
    mini = MiniSystem(
        sim, interconnect_config=InterconnectConfig(split_addr_channels=True)
    )
    ports = []
    for k in range(3):
        port = MasterPort(
            sim, PortConfig(name=f"m{k}", split_channels=True, max_outstanding=8)
        )
        mini.interconnect.attach_port(port)
        ports.append(port)
        stride = 4096 if k == 2 else 256
        for i in range(40):
            port.submit(
                Transaction(
                    master=port.name, is_write=i % 3 != 0,
                    addr=(k << 20) + i * stride, burst_len=8, created=sim.now,
                )
            )
    return mini, ports


def test_same_cycle_lower_id_is_inserted_ahead_of_tail(sim):
    mini, _ = _split_system(sim)
    dram = mini.dram
    enqueue = dram.enqueue
    out_of_order = 0

    def checked_enqueue(txn):
        nonlocal out_of_order
        enqueue(txn)
        queue = dram._queue
        if queue[-1].txn is not txn:
            out_of_order += 1
        assert queue == sorted(queue, key=_age)

    dram.enqueue = checked_enqueue
    sim.run()
    assert out_of_order > 0


def test_split_channel_counters_are_pinned(sim):
    # Scheduling decisions, not just totals: a partial run pins how far
    # each master got, and the bypass and row counters pin the FR-FCFS
    # choices made on the way.
    mini, ports = _split_system(sim)
    sim.run(until=2_000)
    completed = {p.name: p.stats.counter("completed").value for p in ports}
    counters = {
        name: mini.dram.stats.counter(name).value
        for name in ("serviced", "frfcfs_bypasses", "row_hit", "row_conflict")
    }
    assert completed == {"m0": 19, "m1": 39, "m2": 16}
    assert counters == {
        "serviced": 74, "frfcfs_bypasses": 39, "row_hit": 45, "row_conflict": 23,
    }
