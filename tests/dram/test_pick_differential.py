"""Differential test: the controller's single-scan pick against the oracle.

:meth:`DramController._pick` relies on the queue being age-ordered
and stops at the first eligible row hit.  For random queues, open
rows, posted flags, QoS values and scheduler settings it must choose
the same entry as :func:`reference_pick`, charge the same bypasses to
the same entries and add the same amount to ``frfcfs_bypasses`` --
pick after pick until the queue drains.  No E1--E21 experiment turns
on ``posted_writes``/``read_priority``, so this is their guard.
"""

from hypothesis import given, settings, strategies as st

from repro.axi.txn import Transaction
from repro.dram.address_map import AddressMap
from repro.dram.controller import DramConfig, DramController, _QueueEntry
from repro.sim.kernel import Simulator
from tests.dram.reference_pick import _age, reference_pick

_BANKS = 4
_ROWS = 3

_entry = st.tuples(
    st.integers(0, 2),  # arrival step after the previous entry
    st.booleans(),  # posted
    st.integers(0, 3),  # qos
    st.integers(0, _BANKS - 1),  # bank
    st.integers(0, _ROWS - 1),  # row
    st.integers(0, 5),  # bypasses already charged
)

_case = st.fixed_dictionaries(
    {
        "scheduler": st.sampled_from(("frfcfs", "frfcfs_qos", "fcfs")),
        "read_priority": st.booleans(),
        "frfcfs_cap": st.integers(0, 4),
        "watermark": st.integers(1, 8),
        "buffered": st.integers(0, 8),
        "open_rows": st.lists(
            st.one_of(st.none(), st.integers(0, _ROWS - 1)),
            min_size=_BANKS,
            max_size=_BANKS,
        ),
        "entries": st.lists(_entry, min_size=1, max_size=24),
        "id_seed": st.randoms(use_true_random=False),
    }
)


def _controller(case):
    config = DramConfig(
        address_map=AddressMap(num_banks=_BANKS),
        scheduler=case["scheduler"],
        frfcfs_cap=case["frfcfs_cap"],
        refresh_enabled=False,
        posted_writes=True,
        read_priority=case["read_priority"],
        write_buffer_depth=8,
        write_drain_watermark=case["watermark"],
    )
    ctrl = DramController(Simulator(), config)
    ctrl._buffered_writes = case["buffered"]
    for bank, row in zip(ctrl.banks, case["open_rows"]):
        bank.open_row = row
    return ctrl


def _arrivals(case):
    """Entries in arrival order; ids shuffled so that same-cycle
    arrivals come in any id order, as split AR/AW channels deliver."""
    ids = list(range(len(case["entries"])))
    case["id_seed"].shuffle(ids)
    arrival = 0
    out = []
    for txn_id, (step, posted, qos, bank, row, bypasses) in zip(
        ids, case["entries"]
    ):
        arrival += step
        txn = Transaction(
            master="m", is_write=posted, addr=0, burst_len=1, qos=qos
        )
        txn.txn_id = txn_id
        out.append((txn, arrival, bank, row, posted, bypasses))
    return out


def _entries(arrivals):
    entries = []
    for txn, arrival, bank, row, posted, bypasses in arrivals:
        entry = _QueueEntry(txn, arrival, bank, row, posted=posted)
        entry.bypasses = bypasses
        entries.append(entry)
    return entries


def _bypasses(ctrl):
    return {e.txn.txn_id: e.bypasses for e in ctrl._queue}


@settings(max_examples=300, deadline=None)
@given(_case)
def test_single_scan_pick_matches_reference(case):
    arrivals = _arrivals(case)
    ref = _controller(case)
    ref._queue = _entries(arrivals)
    new = _controller(case)
    new._queue = sorted(_entries(arrivals), key=_age)
    ref_total = ref.stats.counter("frfcfs_bypasses")
    new_total = new.stats.counter("frfcfs_bypasses")
    while ref._queue:
        expected = reference_pick(ref)
        got = new._queue.pop(new._pick(0))
        assert got.txn.txn_id == expected.txn.txn_id
        ref._queue.remove(expected)
        assert _bypasses(new) == _bypasses(ref)
        assert new_total.value == ref_total.value
        # Serving opens the row; a drained posted write frees its slot.
        for ctrl, entry in ((ref, expected), (new, got)):
            ctrl.banks[entry.bank].open_row = entry.row
            if entry.posted and ctrl._buffered_writes:
                ctrl._buffered_writes -= 1
