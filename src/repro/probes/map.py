"""The probe register file: named, addressable live reads.

The reproduced IP exposes its monitor state as memory-mapped
registers; this module is that register file for the simulated
platform.  At platform build time every component registers *probes*:
a probe is a name (``component/master/metric``), a small sequential
address (its registration index -- what a memory map would assign),
metadata (unit, master, channel group), and a zero-argument read
function.

Reads are **pull-based and allocation-free**: each read function is a
pre-bound callable resolved once at registration (the same discipline
components follow for their ``StatSet`` handles), so sampling
a probe set costs one call and one list store per probe -- no dict
building, no attribute re-lookup chains, no string formatting.

Naming scheme (see ``docs/observability.md``):

* ``kernel/<metric>`` -- simulation kernel counters;
* ``dram/<metric>`` -- memory controller;
* ``interconnect/<metric>`` -- the AXI crossbar;
* ``port/<master>/<metric>`` -- AXI master ports;
* ``reg/<master>/<metric>`` -- bandwidth regulators;
* ``mon/<master>/<metric>`` -- the regulator's windowed monitor.

Every ``StatSet`` counter of the DRAM controller, the interconnect
and each port is registered automatically under its own name
(``dram/row_hit``, ``interconnect/arb_passes``,
``port/<master>/regulator_denials``), so a component counts in one
place and the count is read by name in one place.  The end-of-run
metrics summary is ``platform.probes.snapshot()``.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TYPE_CHECKING,
)

from repro.errors import ProbeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.stats import StatSet
    from repro.soc.platform import Platform

ReadFn = Callable[[], Any]


class Probe:
    """One addressable live value (a register of the probe file).

    Attributes:
        addr: Sequential register address (registration order).
        name: Hierarchical probe name, e.g. ``port/cpu0/outstanding``.
        read: Zero-argument callable returning the current value.
        unit: Unit of the value (``cycles``, ``bytes``, ``txns``, ...).
        master: Owning master name, or ``None`` for platform-wide
            probes (kernel, DRAM, interconnect).
        channel: Component group the probe belongs to (``kernel``,
            ``dram``, ``interconnect``, ``port``, ``reg``, ``mon``).
    """

    __slots__ = ("addr", "name", "read", "unit", "master", "channel")

    def __init__(
        self,
        addr: int,
        name: str,
        read: ReadFn,
        unit: str = "",
        master: Optional[str] = None,
        channel: Optional[str] = None,
    ) -> None:
        self.addr = addr
        self.name = name
        self.read = read
        self.unit = unit
        self.master = master
        self.channel = channel

    def describe(self) -> Dict[str, Any]:
        """Metadata dict (no value) for clients and dumps."""
        return {
            "addr": self.addr,
            "name": self.name,
            "unit": self.unit,
            "master": self.master,
            "channel": self.channel,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Probe({self.addr:#04x} {self.name})"


class ProbeMap:
    """Ordered registry of :class:`Probe` objects.

    Addresses are assigned sequentially at registration, so the map
    doubles as the platform's probe memory map: ``by_addr(i)`` is the
    probe registered ``i``-th.
    """

    def __init__(self) -> None:
        self._probes: List[Probe] = []
        self._by_name: Dict[str, Probe] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        read: ReadFn,
        unit: str = "",
        master: Optional[str] = None,
        channel: Optional[str] = None,
    ) -> Probe:
        """Register one probe; its address is the registration index.

        Raises:
            ProbeError: ``name`` is already registered or empty.
        """
        if not name:
            raise ProbeError("probe name must be non-empty")
        if name in self._by_name:
            raise ProbeError(f"probe {name!r} registered twice")
        probe = Probe(
            len(self._probes), name, read,
            unit=unit, master=master, channel=channel,
        )
        self._probes.append(probe)
        self._by_name[name] = probe
        return probe

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._probes)

    def __iter__(self) -> Iterator[Probe]:
        return iter(self._probes)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def names(self) -> List[str]:
        """All probe names in address order."""
        return [p.name for p in self._probes]

    def get(self, name: str) -> Probe:
        """Probe by name.

        Raises:
            ProbeError: unknown name.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise ProbeError(f"unknown probe {name!r}") from None

    def by_addr(self, addr: int) -> Probe:
        """Probe by register address.

        Raises:
            ProbeError: address outside the map.
        """
        if not 0 <= addr < len(self._probes):
            raise ProbeError(
                f"probe address {addr} outside [0, {len(self._probes)})"
            )
        return self._probes[addr]

    def select(self, patterns: Optional[Sequence[str]] = None) -> List[Probe]:
        """Probes matching any of the glob ``patterns`` (address order).

        ``None`` (or an empty sequence) selects every probe.  Patterns
        use :func:`fnmatch.fnmatchcase` semantics, so ``port/cpu0/*``
        or ``*/tokens`` work as expected.

        Raises:
            ProbeError: the patterns match nothing at all.
        """
        if not patterns:
            return list(self._probes)
        selected = [
            p
            for p in self._probes
            if any(fnmatchcase(p.name, pat) for pat in patterns)
        ]
        if not selected:
            raise ProbeError(f"no probe matches {list(patterns)!r}")
        return selected

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, name: str) -> Any:
        """Current value of one probe."""
        return self.get(name).read()

    def snapshot(
        self, probes: Optional[Sequence[Probe]] = None
    ) -> Dict[str, Any]:
        """Name -> value dict of the selected probes (cold path)."""
        targets = self._probes if probes is None else probes
        return {p.name: p.read() for p in targets}

    def describe(
        self, probes: Optional[Sequence[Probe]] = None
    ) -> List[Dict[str, Any]]:
        """Metadata list of the selected probes (cold path)."""
        targets = self._probes if probes is None else probes
        return [p.describe() for p in targets]


def _register_kernel(probes: ProbeMap, platform: "Platform") -> None:
    sim = platform.sim
    probes.register(
        "kernel/now", lambda: sim.now, unit="cycles", channel="kernel"
    )
    # sim.events_dispatched is intentionally NOT a probe: the run
    # loop commits it only when run() returns, so a mid-run read is a
    # stale zero -- worse than no probe at all.
    probes.register(
        "kernel/pending_events",
        lambda: sim.pending_events,
        unit="events",
        channel="kernel",
    )


#: Units of auto-registered StatSet counters; any other counter
#: counts transactions.
_COUNTER_UNITS = {
    "bytes": "bytes",
    "accepted_bytes": "bytes",
    "regulator_denials": "episodes",
    "arb_passes": "passes",
    "turnarounds": "turnarounds",
    "frfcfs_bypasses": "bypasses",
    "refreshes": "refreshes",
}


def _register_counters(
    probes: ProbeMap,
    prefix: str,
    stats: "StatSet",
    channel: str,
    master: Optional[str] = None,
) -> None:
    """Register every counter of ``stats`` as ``<prefix>/<counter>``.

    A probe's name is its counter's name, so each counted quantity
    is readable under exactly one probe.
    """
    for name, counter in stats.counters().items():
        probes.register(
            f"{prefix}/{name}",
            lambda counter=counter: counter.value,
            unit=_COUNTER_UNITS.get(name, "txns"),
            master=master,
            channel=channel,
        )


def _register_dram(probes: ProbeMap, platform: "Platform") -> None:
    dram = platform.dram
    probes.register(
        "dram/queue_depth", lambda: dram.queue_depth,
        unit="txns", channel="dram",
    )
    probes.register(
        "dram/busy_cycles", lambda: dram.busy_cycles,
        unit="cycles", channel="dram",
    )
    probes.register(
        "dram/row_hit_rate", dram.row_hit_rate,
        unit="ratio", channel="dram",
    )
    _register_counters(probes, "dram", dram.stats, "dram")


def _register_port(probes: ProbeMap, name: str, port: Any) -> None:
    probes.register(
        f"port/{name}/queue_depth", lambda: port.queue_depth,
        unit="txns", master=name, channel="port",
    )
    probes.register(
        f"port/{name}/outstanding", lambda: port.outstanding,
        unit="txns", master=name, channel="port",
    )
    probes.register(
        f"port/{name}/last_latency", lambda: port.last_latency,
        unit="cycles", master=name, channel="port",
    )
    probes.register(
        f"port/{name}/throttle_cycles",
        lambda: port.throttle_cycles_at(port.sim.now),
        unit="cycles", master=name, channel="port",
    )
    _register_counters(probes, f"port/{name}", port.stats, "port", master=name)


def _register_regulator(probes: ProbeMap, name: str, reg: Any) -> None:
    # Deliberately duck-typed on the introspection surface of
    # TightlyCoupledRegulator so custom regulator classes with the
    # same accessors get the same probes.
    probes.register(
        f"reg/{name}/charged_bytes", lambda: reg.charged_bytes,
        unit="bytes", master=name, channel="reg",
    )
    probes.register(
        f"reg/{name}/charged_transactions",
        lambda: reg.charged_transactions,
        unit="txns", master=name, channel="reg",
    )
    if hasattr(reg, "peek_tokens"):
        probes.register(
            f"reg/{name}/tokens", reg.peek_tokens,
            unit="bytes", master=name, channel="reg",
        )
    if hasattr(reg, "budget_bytes"):
        probes.register(
            f"reg/{name}/budget_bytes", lambda: reg.budget_bytes,
            unit="bytes", master=name, channel="reg",
        )
    if hasattr(reg, "window_cycles"):
        probes.register(
            f"reg/{name}/window_cycles", lambda: reg.window_cycles,
            unit="cycles", master=name, channel="reg",
        )
    if hasattr(reg, "reconfig_count"):
        probes.register(
            f"reg/{name}/reconfig_count", lambda: reg.reconfig_count,
            unit="writes", master=name, channel="reg",
        )
    if hasattr(reg, "injected_bytes"):
        probes.register(
            f"reg/{name}/injected_bytes", lambda: reg.injected_bytes,
            unit="bytes", master=name, channel="reg",
        )
    if hasattr(reg, "injected_transactions"):
        probes.register(
            f"reg/{name}/injected_transactions",
            lambda: reg.injected_transactions,
            unit="txns", master=name, channel="reg",
        )
    if hasattr(reg, "window_resets"):
        probes.register(
            f"reg/{name}/window_resets", lambda: reg.window_resets,
            unit="windows", master=name, channel="reg",
        )
    if hasattr(reg, "interrupt_count"):
        probes.register(
            f"reg/{name}/interrupt_count", lambda: reg.interrupt_count,
            unit="interrupts", master=name, channel="reg",
        )
    monitor = getattr(reg, "monitor", None)
    if monitor is not None:
        probes.register(
            f"mon/{name}/window_bytes", monitor.current_window_bytes,
            unit="bytes", master=name, channel="mon",
        )
        probes.register(
            f"mon/{name}/total_bytes", monitor.total_bytes,
            unit="bytes", master=name, channel="mon",
        )
        probes.register(
            f"mon/{name}/peak_window_bytes", monitor.peak_window_bytes,
            unit="bytes", master=name, channel="mon",
        )


def build_probe_map(platform: "Platform") -> ProbeMap:
    """Register every component's probes for one built platform.

    Called by :class:`~repro.soc.platform.Platform` at the end of
    construction; the result is exposed as ``platform.probes``.
    Registration order (and therefore addressing) is deterministic:
    kernel, DRAM, interconnect, then per-master port/regulator/monitor
    probes in config order.
    """
    probes = ProbeMap()
    _register_kernel(probes, platform)
    _register_dram(probes, platform)
    _register_counters(
        probes, "interconnect", platform.interconnect.stats, "interconnect"
    )
    for spec in platform.config.masters:
        name = spec.name
        _register_port(probes, name, platform.ports[name])
        regulator = platform.regulators.get(name)
        if regulator is not None:
            _register_regulator(probes, name, regulator)
    return probes
