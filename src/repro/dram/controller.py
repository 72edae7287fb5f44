"""The DRAM memory controller.

Models the controller of the shared DDR channel as a two-stage
pipeline: bank command sequences (activate / precharge / column
access) overlap with the data-bus transfer of the previous request,
and the serialized data bus is the sustained-bandwidth bottleneck.

Scheduling policies:

* ``frfcfs`` (default) -- First-Ready FCFS: row-buffer hits are served
  before older non-hits, bounded by a starvation cap, as in
  commercial controllers.  Locality-rich streams (DMA hogs) extract
  more bandwidth per request, which is why unregulated accelerators
  hurt latency-sensitive CPU traffic so badly.
* ``fcfs`` -- strict arrival order; a pessimistic baseline used in
  sensitivity studies.

The request queue is kept in age order, ``(arrival, txn_id)``, so
every policy picks in one forward scan: the first eligible entry is
the oldest, the first eligible entry whose row is open is the best
row hit, and the scan stops there.

Refresh is modelled as a periodic all-bank event that closes row
buffers and blocks the data bus for ``t_rfc`` cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigError, ProtocolError
from repro.sim.kernel import Phase, Simulator
from repro.sim.stats import StatSet
from repro.axi.txn import Transaction
from repro.dram.address_map import AddressMap
from repro.dram.bank import Bank
from repro.dram.timing import DramTiming


@dataclass(frozen=True)
class DramConfig:
    """Static DRAM controller configuration.

    Attributes:
        timing: Device timing set (fabric cycles).
        address_map: Physical address decoding.
        scheduler: ``"frfcfs"``, ``"frfcfs_qos"`` or ``"fcfs"``.
            ``frfcfs_qos`` restricts each pick to the highest AXI QoS
            value present in the queue before applying the FR-FCFS
            rule, modelling DDR controllers that map AxQOS into
            scheduling priority.
        frfcfs_cap: Max number of row hits that may bypass the oldest
            queued request before it is force-served (starvation cap).
        refresh_enabled: Model periodic refresh.
        posted_writes: Writes complete at a write buffer (the
            controller acknowledges as soon as the data is accepted),
            as commercial controllers do; the drain to the device
            still occupies the data bus.  Read latency then excludes
            write-drain waiting only insofar as the scheduler can
            reorder -- see ``read_priority``.
        write_buffer_depth: Posted-write buffer entries; when full,
            writes are no longer posted (back-pressure).
        read_priority: Scheduler prefers reads over buffered writes
            until the write buffer reaches its high watermark
            (read-first with drain threshold, the standard policy).
        write_drain_watermark: Buffered writes that force draining.
        row_policy: ``"open"`` keeps rows open after an access
            (row-buffer locality pays off; conflicts cost extra) or
            ``"closed"`` auto-precharges after every access (every
            access is activate+CAS; predictable but locality-blind,
            the policy some real-time controllers choose).
    """

    timing: DramTiming = field(default_factory=DramTiming)
    address_map: AddressMap = field(default_factory=AddressMap)
    scheduler: str = "frfcfs"
    frfcfs_cap: int = 4
    refresh_enabled: bool = True
    posted_writes: bool = False
    write_buffer_depth: int = 16
    read_priority: bool = False
    write_drain_watermark: int = 12
    row_policy: str = "open"

    def __post_init__(self) -> None:
        if self.scheduler not in ("frfcfs", "frfcfs_qos", "fcfs"):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")
        if self.frfcfs_cap < 0:
            raise ConfigError(f"frfcfs_cap must be >= 0, got {self.frfcfs_cap}")
        if self.write_buffer_depth < 1:
            raise ConfigError("write_buffer_depth must be >= 1")
        if not 1 <= self.write_drain_watermark <= self.write_buffer_depth:
            raise ConfigError(
                "write_drain_watermark must be in [1, write_buffer_depth]"
            )
        if self.read_priority and not self.posted_writes:
            raise ConfigError("read_priority requires posted_writes")
        if self.row_policy not in ("open", "closed"):
            raise ConfigError(f"unknown row policy {self.row_policy!r}")


class _QueueEntry:
    __slots__ = ("txn", "arrival", "bank", "row", "bypasses", "posted")

    def __init__(
        self,
        txn: Transaction,
        arrival: int,
        bank: int,
        row: int,
        posted: bool = False,
    ) -> None:
        self.txn = txn
        self.arrival = arrival
        self.bank = bank
        self.row = row
        self.bypasses = 0
        #: Posted write: already acknowledged upstream; this entry is
        #: only the drain of the buffered data to the device.
        self.posted = posted


class DramController:
    """FR-FCFS memory controller over a banked device."""

    def __init__(self, sim: Simulator, config: Optional[DramConfig] = None) -> None:
        self.sim = sim
        self.config = config or DramConfig()
        self.timing = self.config.timing
        self.address_map = self.config.address_map
        self.banks = [Bank(i) for i in range(self.address_map.num_banks)]
        self.stats = StatSet("dram")
        # Pre-resolved collectors: enqueue/_service run once per
        # request, so the StatSet name lookups are hoisted out of them.
        # Every counter exists from construction on, so the probe map
        # built with the platform sees all of them.
        stats = self.stats
        self._stat_enqueued = stats.counter("enqueued")
        self._stat_posted = stats.counter("posted_writes")
        self._stat_row = {
            kind: stats.counter(f"row_{kind}")
            for kind in ("hit", "miss", "conflict")
        }
        self._stat_turnarounds = stats.counter("turnarounds")
        self._stat_serviced = stats.counter("serviced")
        self._stat_bytes = stats.counter("bytes")
        self._stat_bypasses = stats.counter("frfcfs_bypasses")
        self._stat_refreshes = stats.counter("refreshes")
        self._queue: List[_QueueEntry] = []
        self._upstream = None
        self._bus_free_at = 0
        # First cycle the scheduler may pick the next request.  Set to
        # the *start* of the previous data transfer so the next bank
        # command sequence overlaps it (two-stage pipeline); streaming
        # row hits then sustain the full data-bus rate.
        self._pick_free_at = 0
        self._last_was_write: Optional[bool] = None
        self._busy_cycles = 0
        self._buffered_writes = 0
        self._sched_scheduled_at: Optional[int] = None
        if self.config.refresh_enabled and self.timing.t_refi > 0:
            self.sim.schedule(
                self.timing.t_refi, self._refresh, priority=Phase.MEMORY,
                daemon=True,
            )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def set_upstream(self, upstream) -> None:
        """Connect the interconnect that receives completions."""
        if self._upstream is not None:
            raise ProtocolError("upstream attached twice")
        self._upstream = upstream

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    # repro: hot
    def enqueue(self, txn: Transaction) -> None:
        """Accept a transaction from the interconnect."""
        bank, row = self.address_map.decode(txn.addr)
        posted = (
            self.config.posted_writes
            and txn.is_write
            and self._buffered_writes < self.config.write_buffer_depth
        )
        now = self.sim.now
        # Age order: the tail, unless split AR/AW channels already
        # queued a higher id in this cycle.
        queue = self._queue
        i = len(queue)
        txn_id = txn.txn_id
        while i and queue[i - 1].arrival == now and queue[i - 1].txn.txn_id > txn_id:
            i -= 1
        queue.insert(i, _QueueEntry(txn, now, bank, row, posted=posted))
        self._stat_enqueued.add()
        if posted:
            # The write buffer acknowledges immediately; the drain to
            # the device stays queued.
            self._buffered_writes += 1
            self._stat_posted.add()
            txn.mark_mem_start(now)
            upstream = self._upstream
            if upstream is None:
                raise ProtocolError("no upstream attached to DRAM controller")
            upstream.on_mem_complete(txn)
        self._kick()

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        at = max(self.sim.now, self._next_schedule_time())
        if self._sched_scheduled_at is not None and self._sched_scheduled_at <= at:
            return
        self._sched_scheduled_at = at
        self.sim.schedule_at(at, self._schedule_pass, priority=Phase.MEMORY)

    def _next_schedule_time(self) -> int:
        # The pipeline admits a new request as soon as the previous
        # one has started its data transfer (two-stage overlap).
        return self._pick_free_at

    def _schedule_pass(self) -> None:
        self._sched_scheduled_at = None
        if not self._queue:
            return
        now = self.sim.now
        if now < self._pick_free_at:
            self._kick()
            return
        self._service(self._queue.pop(self._pick(now)), now)
        if self._queue:
            self._kick()

    # repro: hot
    def _pick(self, now: int) -> int:
        """Index of the next request: one scan of the age-ordered queue."""
        queue = self._queue
        config = self.config
        # Read-first with drain threshold: hold buffered writes back
        # while reads are pending, until the buffer fills to its
        # watermark.
        hold = False
        watermark = config.write_drain_watermark
        if config.read_priority and self._buffered_writes < watermark:
            for e in queue:
                if not e.posted:
                    hold = True
                    break
        top_qos = None
        if config.scheduler == "frfcfs_qos":
            for e in queue:
                qos = e.txn.qos
                if not (hold and e.posted) and (top_qos is None or qos > top_qos):
                    top_qos = qos
        banks = self.banks
        oldest = -1
        for i, e in enumerate(queue):
            if (hold and e.posted) or (top_qos is not None and e.txn.qos != top_qos):
                continue
            if oldest < 0:
                oldest = i
                if config.scheduler == "fcfs":
                    return i
            if banks[e.bank].open_row == e.row:
                if i == oldest:
                    return i
                # FR-FCFS with starvation cap.
                first = queue[oldest]
                if first.bypasses >= config.frfcfs_cap:
                    return oldest
                first.bypasses += 1
                self._stat_bypasses.add()
                return i
        return oldest

    def _service(self, entry: _QueueEntry, now: int) -> None:
        txn = entry.txn
        bank = self.banks[entry.bank]
        kind = bank.classify(entry.row)
        self._stat_row[kind].add()

        cmd_start = max(now, bank.ready_at())
        data_ready = bank.perform_access(entry.row, cmd_start, self.timing)
        if self.config.row_policy == "closed":
            bank.auto_precharge(self.timing)

        bus_start = max(data_ready, self._bus_free_at)
        if self._last_was_write is not None and self._last_was_write != txn.is_write:
            bus_start += self.timing.rw_turnaround
            self._stat_turnarounds.add()
        data_cycles = self.timing.data_cycles(txn.burst_len)
        bus_end = bus_start + data_cycles

        self._bus_free_at = bus_end
        self._pick_free_at = bus_start
        self._last_was_write = txn.is_write
        self._busy_cycles += data_cycles
        self._stat_serviced.add()
        self._stat_bytes.add(txn.nbytes)

        if entry.posted:
            # Drain of an already-acknowledged write: free the buffer
            # slot when the data leaves the bus; no upstream
            # completion (it was sent at enqueue).
            self.sim.schedule_at(
                bus_end, self._drain_done, priority=Phase.MEMORY
            )
            return
        txn.mark_mem_start(cmd_start)
        upstream = self._upstream
        if upstream is None:
            raise ProtocolError("no upstream attached to DRAM controller")
        self.sim.schedule_at(
            bus_end, lambda t=txn: upstream.on_mem_complete(t), priority=Phase.MEMORY
        )

    def _drain_done(self) -> None:
        self._buffered_writes -= 1

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        now = self.sim.now
        for bank in self.banks:
            bank.precharge_all(now, self.timing)
        # All-bank refresh blocks the device for t_rfc.
        refresh_end = max(self._bus_free_at, now) + self.timing.t_rfc
        self._bus_free_at = refresh_end
        self._pick_free_at = max(self._pick_free_at, refresh_end)
        for bank in self.banks:
            bank._ready_at = max(bank.ready_at(), refresh_end)
        self._stat_refreshes.add()
        self.sim.schedule(
            self.timing.t_refi, self._refresh, priority=Phase.MEMORY, daemon=True
        )
        if self._queue:
            self._kick()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def busy_cycles(self) -> int:
        """Data-bus cycles spent transferring payload."""
        return self._busy_cycles

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` cycles the data bus moved payload."""
        if elapsed <= 0:
            raise ConfigError(f"elapsed must be positive, got {elapsed}")
        return self._busy_cycles / elapsed

    def row_hit_rate(self) -> float:
        """Aggregate row-buffer hit rate across banks."""
        total = sum(b.accesses for b in self.banks)
        if not total:
            return 0.0
        return sum(b.hits for b in self.banks) / total
