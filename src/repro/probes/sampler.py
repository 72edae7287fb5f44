"""Periodic probe sampling into a preallocated ring buffer.

A :class:`ProbeSampler` is a pure *observer*: it schedules a daemon
tick every ``period`` cycles at :data:`~repro.sim.kernel.Phase.STATS`
(after all functional phases of the cycle, the same slot end-of-cycle
bookkeeping uses) and copies the selected probe values into a
preallocated ring of rows.  Daemon events neither keep the run alive
nor participate in any result the platform reports, and every probe
read is side-effect-free, so a run is **bit-identical** whether a
sampler is attached or not -- the differential tests in
``tests/probes/test_sampler.py`` prove this.

The ring is allocated once at construction (``capacity`` rows of
``len(probes)`` slots each); the per-tick work is one read + one list
store per probe, with zero allocation.  Consumers (the ``repro watch``
printer, the flight recorder) subscribe via
:attr:`ProbeSampler.consumers` and receive ``(now, names, row)`` --
the *live* row, which they must copy if they keep it.
"""

from __future__ import annotations

# repro: config-layer -- resolves the REPRO_PROBE_PERIOD knob
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProbeError
from repro.probes.map import Probe, ProbeMap
from repro.sim.kernel import Phase, Simulator

#: Environment override for the default sampling period (cycles).
PROBE_PERIOD_ENV = "REPRO_PROBE_PERIOD"

#: Default sampling period when neither argument nor env is given.
DEFAULT_PROBE_PERIOD = 4096

#: A frame consumer: ``fn(now, names, row)``; ``row`` is live.
FrameConsumer = Callable[[int, Tuple[str, ...], List[Any]], None]


def resolve_probe_period(period: Optional[int] = None) -> int:
    """Sampling period: explicit argument, env knob, or default.

    Raises:
        ProbeError: the period (from either source) is not a positive
            integer.
    """
    if period is None:
        raw = os.environ.get(PROBE_PERIOD_ENV, "").strip()
        if not raw:
            return DEFAULT_PROBE_PERIOD
        try:
            period = int(raw)
        except ValueError:
            raise ProbeError(
                f"{PROBE_PERIOD_ENV} must be a positive integer, got {raw!r}"
            ) from None
    if period < 1:
        raise ProbeError(f"probe period must be >= 1, got {period}")
    return period


class ProbeSampler:
    """Snapshot a probe selection every N cycles into a ring buffer.

    Args:
        sim: The simulation kernel to observe.
        probe_map: The platform's probe register file.
        probes: Optional glob patterns selecting a probe subset
            (``None`` = every probe); see :meth:`ProbeMap.select`.
        period: Sampling period in cycles (``None`` resolves
            ``REPRO_PROBE_PERIOD``, default 4096).
        capacity: Ring-buffer rows kept (oldest frames overwritten).
    """

    def __init__(
        self,
        sim: Simulator,
        probe_map: ProbeMap,
        probes: Optional[Sequence[str]] = None,
        period: Optional[int] = None,
        capacity: int = 256,
    ) -> None:
        if capacity < 1:
            raise ProbeError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.map = probe_map
        self.probes: List[Probe] = probe_map.select(probes)
        self.period = resolve_probe_period(period)
        self.capacity = capacity
        self.names: Tuple[str, ...] = tuple(p.name for p in self.probes)
        # Pre-resolved read callables: the tick loop indexes this list
        # instead of re-walking Probe objects.
        self._reads: List[Callable[[], Any]] = [p.read for p in self.probes]
        width = len(self.probes)
        self._times: List[int] = [0] * capacity
        self._rows: List[List[Any]] = [[0] * width for _ in range(capacity)]
        self._count = 0
        self._attached = False
        self._stopped = False
        #: Frame consumers called after each sample (live row).
        self.consumers: List[FrameConsumer] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Schedule the sampling tick (one daemon event per period).

        Raises:
            ProbeError: already attached.
        """
        if self._attached:
            raise ProbeError("sampler already attached")
        self._attached = True
        self._stopped = False
        self.sim.schedule(
            self.period, self._tick, priority=Phase.STATS, daemon=True
        )

    def detach(self) -> None:
        """Stop sampling: the pending tick will not reschedule."""
        self._stopped = True
        self._attached = False

    # ------------------------------------------------------------------
    # sampling (runs once per period; allocation-free)
    # ------------------------------------------------------------------
    # repro: hot -- one ring-snapshot per sample period, every period
    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.sim.now
        slot = self._count % self.capacity
        row = self._rows[slot]
        reads = self._reads
        for i in range(len(reads)):
            row[i] = reads[i]()
        self._times[slot] = now
        self._count += 1
        consumers = self.consumers
        if consumers:
            names = self.names
            for fn in consumers:
                fn(now, names, row)
        self.sim.schedule(
            self.period, self._tick, priority=Phase.STATS, daemon=True
        )

    # ------------------------------------------------------------------
    # introspection (cold paths)
    # ------------------------------------------------------------------
    @property
    def frames_sampled(self) -> int:
        """Frames sampled over the sampler's lifetime."""
        return self._count

    @property
    def frames_dropped(self) -> int:
        """Frames overwritten because the ring wrapped."""
        return max(0, self._count - self.capacity)

    def frames(self) -> List[Dict[str, Any]]:
        """Retained frames, oldest first.

        Each frame is ``{"time": cycle, "values": {name: value}}``;
        at most ``capacity`` frames are retained.
        """
        out: List[Dict[str, Any]] = []
        names = self.names
        for k in range(max(0, self._count - self.capacity), self._count):
            slot = k % self.capacity
            out.append(
                {
                    "time": self._times[slot],
                    "values": dict(zip(names, self._rows[slot])),
                }
            )
        return out

    def last_frame(self) -> Optional[Dict[str, Any]]:
        """The most recent frame, or ``None`` before the first tick."""
        if not self._count:
            return None
        slot = (self._count - 1) % self.capacity
        return {
            "time": self._times[slot],
            "values": dict(zip(self.names, self._rows[slot])),
        }
