"""A deliberately naive FR-FCFS pick used as a test oracle.

:func:`reference_pick` applies the controller's scheduling rule in
three plain passes over the queue: filter it (read-first below the
drain watermark, top AXI QoS under ``frfcfs_qos``), take the minimum
``(arrival, txn_id)`` as the oldest entry, then build the list of row
hits and take its minimum.  It does not rely on the order of the
queue, so any decision that differs from
:meth:`DramController._pick` -- which relies on the age-ordered queue
and stops at the first row hit -- points at the single scan.
"""

from __future__ import annotations


def _age(entry):
    return (entry.arrival, entry.txn.txn_id)


def reference_pick(ctrl):
    """The entry ``ctrl`` should serve next.

    Like the controller, it charges a bypass to the oldest entry (and
    to ``frfcfs_bypasses``) when a younger row hit overtakes it.
    """
    config = ctrl.config
    candidates = ctrl._queue
    if config.read_priority:
        reads = [e for e in candidates if not e.posted]
        if reads and ctrl._buffered_writes < config.write_drain_watermark:
            candidates = reads
    if config.scheduler == "frfcfs_qos":
        top_qos = max(e.txn.qos for e in candidates)
        candidates = [e for e in candidates if e.txn.qos == top_qos]
    oldest = min(candidates, key=_age)
    if config.scheduler == "fcfs":
        return oldest
    hits = [e for e in candidates if ctrl.banks[e.bank].classify(e.row) == "hit"]
    if not hits:
        return oldest
    best_hit = min(hits, key=_age)
    if best_hit is oldest:
        return oldest
    if oldest.bypasses >= config.frfcfs_cap:
        return oldest
    oldest.bypasses += 1
    ctrl._stat_bypasses.add()
    return best_hit
