"""Outside-in per-layer tracing of the simulator.

Nothing inside ``src/`` knows about this tracer.  :meth:`Tracer.install`
patches, from the outside:

* ``Simulator.schedule`` / ``schedule_at`` -- every scheduled callback
  is wrapped in a span for its owner's layer (the bound method's class
  module, or the function's ``__module__`` for closures such as the
  port retry kick).  All scheduling goes through these two methods, so
  every dispatched event is attributed.
* the boundary methods in :data:`BOUNDARIES`, on the listed class and
  every subclass that defines its own version.

Spans keep a stack; a layer's self time is its span time minus the time
of its child spans.  Spans are aggregated in memory per boundary and per
caller->callee layer edge and read out once by :meth:`Tracer.snapshot`.
Counts come from the same wrappers, plus public ``StatSet`` counters of
the ports and DRAM controllers built while tracing (:meth:`Tracer.fold`).

Layers are named after the ``src/repro`` packages.  ``repro.qos`` (the
run-time budget manager) counts as ``regulation``, ``repro.probes`` as
``telemetry``, and ``repro.analysis`` plus the benchmark code as
``harness`` (table rendering, shape assertions, golden diff).

This module imports nothing from ``repro`` at import time; the
orchestrator uses :func:`layer_metrics` without loading the simulator.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Module prefix -> layer; first match wins.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.axi", "axi"),
    ("repro.regulation", "regulation"),
    ("repro.qos", "regulation"),
    ("repro.traffic", "traffic"),
    ("repro.dram", "dram"),
    ("repro.monitor", "monitor"),
    ("repro.telemetry", "telemetry"),
    ("repro.probes", "telemetry"),
    ("repro.soc", "soc"),
    ("repro.runner", "runner"),
    ("repro.analysis", "harness"),
    ("benchmarks", "harness"),
)

#: Layer of callbacks whose owner maps to no layer.
UNATTRIBUTED = "unattributed"

#: Boundary methods: (layer, "module:Class", methods).  Each method is
#: patched on the class and on every subclass that overrides it; a
#: subclass calling ``super()`` does not open a second span.
BOUNDARIES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.kernel:Simulator", ("run",)),
    ("axi", "repro.axi.port:MasterPort", ("submit", "head", "accept_head", "complete")),
    ("axi", "repro.axi.interconnect:Interconnect", ("kick",)),
    ("axi", "repro.axi.bridge:Bridge", ("enqueue",)),
    (
        "regulation",
        "repro.regulation.base:BandwidthRegulator",
        ("may_issue", "charge", "next_opportunity", "set_budget_bytes"),
    ),
    ("traffic", "repro.traffic.master:Master", ("issue", "_on_response")),
    ("dram", "repro.dram.controller:DramController", ("enqueue",)),
    ("monitor", "repro.monitor.window:WindowedBandwidthMonitor", ("_observe",)),
    ("monitor", "repro.monitor.counters:BeatCounter", ("_observe",)),
    ("monitor", "repro.monitor.latency:LatencyMonitor", ("_observe",)),
    ("telemetry", "repro.telemetry.registry:Counter", ("inc",)),
    ("telemetry", "repro.telemetry.registry:Gauge", ("set", "inc", "dec")),
    ("telemetry", "repro.telemetry.registry:Histogram", ("observe",)),
    ("telemetry", "repro.probes.map:ProbeMap", ("register", "read")),
    ("soc", "repro.soc.platform:Platform", ("__init__",)),
    ("soc", "repro.soc.hierarchy:TwoLevelPlatform", ("__init__",)),
    ("soc", "repro.soc.experiment:PlatformResult", ("__init__",)),
    ("runner", "repro.runner.parallel:ParallelRunner", ("run",)),
    ("runner", "repro.runner.spec:RunSpec", ("content_hash",)),
    ("runner", "repro.runner.cache:ResultCache", ("get", "put")),
    ("runner", "repro.runner.summary:RunSummary", ("from_result",)),
)

#: Classes whose instances are remembered so their simulated
#: statistics can be read after each experiment.
COLLECTED = {
    "sims": "repro.sim.kernel:Simulator",
    "ports": "repro.axi.port:MasterPort",
    "drams": "repro.dram.controller:DramController",
}

#: Extra per-call tallies: boundary key -> f(args, result).
TALLIES: Dict[str, Callable[[tuple, Any], int]] = {
    "regulation.BandwidthRegulator.may_issue": lambda args, result: 1 if result else 0,
    "runner.ParallelRunner.run": lambda args, result: len(args[1]),
}


def layer_of_module(module: str) -> str:
    """The layer owning ``module`` (:data:`UNATTRIBUTED` if none)."""
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return UNATTRIBUTED


def callback_module(callback: Any) -> str:
    """Module owning an event callback."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return type(owner).__module__
    return getattr(callback, "__module__", None) or ""


def resolve(target: str) -> type:
    """The class named by ``"module:Class"``."""
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def import_all() -> None:
    """Import every ``repro`` module so that all subclasses are loaded."""
    root = importlib.import_module("repro")
    for info in pkgutil.walk_packages(root.__path__, "repro."):
        if info.name != "repro.__main__":  # importing it runs the CLI
            importlib.import_module(info.name)


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class _Key:
    """Aggregate of one boundary (or one layer's callbacks)."""

    __slots__ = ("name", "layer", "calls", "self_s", "incl_s", "tally", "edges")

    def __init__(self, name: str, layer: str) -> None:
        self.name = name
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.tally = 0
        #: caller layer -> [calls, inclusive seconds]
        self.edges: Dict[str, List[float]] = {}


class Tracer:
    """Span stack plus the class patches that feed it.

    Use :meth:`span` around each experiment (the root span), and
    :meth:`install` / :meth:`uninstall` around the traced region.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._keys: Dict[str, _Key] = {}
        self._outside = _Key("outside", "harness")
        self._stack: List[list] = [[self._outside, 0.0]]
        self._patches: List[Tuple[type, str, Any]] = []
        self._layers: Dict[str, str] = {}
        self._instances: Dict[str, list] = {kind: [] for kind in COLLECTED}
        #: Simulated statistics folded from collected instances.
        self.stats: Dict[str, float] = {
            "queueing_cyc_total": 0,
            "queueing_samples": 0,
            "row_hits": 0,
            "row_accesses": 0,
            "backend_promotions": 0,
            "events_dispatched": 0,
        }

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def key(self, name: str, layer: str) -> _Key:
        key = self._keys.get(name)
        if key is None:
            key = self._keys[name] = _Key(name, layer)
        return key

    def wrap(self, key: _Key, fn: Callable, tally: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span for ``key``."""
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is key:
                # A subclass override calling super(): one span.
                return fn(*args, **kwargs)
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key.calls += 1
                key.incl_s += elapsed
                key.self_s += elapsed - frame[1]
                parent[1] += elapsed
                caller = parent[0].layer
                edge = key.edges.get(caller)
                if edge is None:
                    edge = key.edges[caller] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
            if tally is not None:
                key.tally += tally(args, result)
            return result

        return traced

    def span(self, name: str, layer: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` inside a span (used for the root spans)."""
        return self.wrap(self.key(name, layer), fn)(*args)

    def _callback_layer(self, callback: Any) -> str:
        module = callback_module(callback)
        layer = self._layers.get(module)
        if layer is None:
            layer = self._layers[module] = layer_of_module(module)
        return layer

    def wrap_callback(self, callback: Callable[[], Any]) -> Callable[[], Any]:
        """An event callback inside a span for its owner's layer."""
        layer = self._callback_layer(callback)
        return self.wrap(self.key(f"{layer}.<callback>", layer), callback)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _patch(self, cls: type, name: str, replacement: Any) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def _patch_boundary(self, cls: type, method: str, key: _Key) -> None:
        raw = cls.__dict__[method]
        tally = TALLIES.get(key.name)
        if isinstance(raw, classmethod):  # RunSummary.from_result
            self._patch(cls, method, classmethod(self.wrap(key, raw.__func__, tally)))
        else:
            self._patch(cls, method, self.wrap(key, raw, tally))

    def install(self) -> None:
        """Patch the scheduler, boundaries and instance collectors."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import_all()
        for layer, target, methods in BOUNDARIES:
            base = resolve(target)
            for method in methods:
                key = self.key(f"{layer}.{base.__name__}.{method}", layer)
                for cls in _subclasses(base):
                    if method in cls.__dict__:
                        self._patch_boundary(cls, method, key)
        simulator = resolve("repro.sim.kernel:Simulator")
        sim_key = self.key("sim.Simulator.schedule", "sim")
        for method in ("schedule", "schedule_at"):
            self._patch(simulator, method, self._scheduler(simulator.__dict__[method], sim_key))
        for kind, target in COLLECTED.items():
            cls = resolve(target)
            self._patch(cls, "__init__", self._collector(cls.__dict__["__init__"], kind))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    def _scheduler(self, schedule: Callable, key: _Key) -> Callable:
        traced = self.wrap(key, schedule)
        wrap_callback = self.wrap_callback

        def schedule_traced(sim, when, callback, *args, **kwargs):
            return traced(sim, when, wrap_callback(callback), *args, **kwargs)

        return schedule_traced

    def _collector(self, init: Callable, kind: str) -> Callable:
        instances = self._instances[kind]

        def init_collected(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        return init_collected

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def fold(self) -> None:
        """Read simulated statistics of the instances built so far, then
        forget them (call after each experiment)."""
        stats = self.stats
        for port in self._instances["ports"]:
            queueing = port.stats.sampler("queueing_delay")
            stats["queueing_cyc_total"] += queueing.total
            stats["queueing_samples"] += queueing.count
        for dram in self._instances["drams"]:
            rows = [dram.stats.counter(f"row_{k}").value for k in ("hit", "miss", "conflict")]
            stats["row_hits"] += rows[0]
            stats["row_accesses"] += sum(rows)
        for sim in self._instances["sims"]:
            kernel = sim.kernel_stats()
            stats["backend_promotions"] += kernel.get("auto_promotions", 0) + kernel.get(
                "batch_promotions", 0
            )
            stats["events_dispatched"] += kernel["events_dispatched"]
        for instances in self._instances.values():
            instances.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Raw aggregates: per-boundary and per-edge sums plus stats.

        Every number is a sum, so snapshots of several runs merge by
        adding (:func:`merge_raw`).
        """
        keys = {
            key.name: {
                "layer": key.layer,
                "calls": key.calls,
                "self_s": key.self_s,
                "incl_s": key.incl_s,
                "tally": key.tally,
            }
            for key in self._keys.values()
        }
        edges: Dict[str, List[float]] = {}
        for key in self._keys.values():
            for caller, (calls, seconds) in key.edges.items():
                edge = edges.setdefault(f"{caller}>{key.layer}", [0, 0.0])
                edge[0] += calls
                edge[1] += seconds
        return {"keys": keys, "edges": edges, "stats": dict(self.stats)}


def merge_raw(raws: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :meth:`Tracer.snapshot` results."""
    merged: Dict[str, Any] = {"keys": {}, "edges": {}, "stats": {}}
    for raw in raws:
        for name, key in raw["keys"].items():
            into = merged["keys"].setdefault(
                name, {"layer": key["layer"], "calls": 0, "self_s": 0.0, "incl_s": 0.0, "tally": 0}
            )
            for field in ("calls", "self_s", "incl_s", "tally"):
                into[field] += key[field]
        for name, (calls, seconds) in raw["edges"].items():
            edge = merged["edges"].setdefault(name, [0, 0.0])
            edge[0] += calls
            edge[1] += seconds
        for name, value in raw["stats"].items():
            merged["stats"][name] = merged["stats"].get(name, 0) + value
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_seconds(raw: Dict[str, Any]) -> Dict[str, float]:
    """Self seconds per layer (including :data:`UNATTRIBUTED`)."""
    out: Dict[str, float] = {}
    for key in raw["keys"].values():
        out[key["layer"]] = out.get(key["layer"], 0.0) + key["self_s"]
    return out


def layer_metrics(raw: Dict[str, Any], traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of ``suite.PER_LAYER`` from raw aggregates."""
    keys = raw["keys"]
    stats = raw["stats"]

    def calls(name: str) -> int:
        return keys.get(name, {}).get("calls", 0)

    def calls_in(layer: str, suffix: str = "") -> int:
        return sum(
            k["calls"] for n, k in keys.items() if k["layer"] == layer and n.endswith(suffix)
        )

    selfs = layer_self_seconds(raw)
    total = sum(selfs.values())
    events = sum(k["calls"] for n, k in keys.items() if n.endswith(".<callback>"))
    txns = calls("axi.MasterPort.submit")
    heads = calls("axi.MasterPort.head")
    checks = calls("regulation.BandwidthRegulator.may_issue")
    requests = calls("dram.DramController.enqueue")
    builds = ("soc.Platform.__init__", "soc.TwoLevelPlatform.__init__")
    metrics = {
        "sim.self_s": selfs.get("sim", 0.0),
        "sim.events": events,
        "sim.ns_per_event": 1e9 * _ratio(selfs.get("sim", 0.0), events),
        "sim.backend_promotions": stats.get("backend_promotions", 0),
        "axi.self_s": selfs.get("axi", 0.0),
        "axi.txns": txns,
        "axi.heads_per_txn": _ratio(heads, txns),
        "axi.accept_ratio": _ratio(calls("axi.MasterPort.accept_head"), heads),
        "axi.queueing_cyc_mean": _ratio(
            stats.get("queueing_cyc_total", 0), stats.get("queueing_samples", 0)
        ),
        "regulation.self_s": selfs.get("regulation", 0.0),
        "regulation.checks_per_txn": _ratio(checks, txns),
        "regulation.admit_ratio": _ratio(
            keys.get("regulation.BandwidthRegulator.may_issue", {}).get("tally", 0), checks
        ),
        "regulation.retries": calls("regulation.BandwidthRegulator.next_opportunity"),
        "traffic.self_s": selfs.get("traffic", 0.0),
        "traffic.issued": calls("traffic.Master.issue"),
        "dram.self_s": selfs.get("dram", 0.0),
        "dram.requests": requests,
        "dram.ns_per_request": 1e9 * _ratio(selfs.get("dram", 0.0), requests),
        "dram.row_hit_rate": _ratio(stats.get("row_hits", 0), stats.get("row_accesses", 0)),
        "monitor.self_s": selfs.get("monitor", 0.0),
        "monitor.observations": calls_in("monitor", "._observe"),
        "telemetry.self_s": selfs.get("telemetry", 0.0),
        "telemetry.calls_per_txn": _ratio(calls_in("telemetry"), txns),
        "soc.build_s": sum(keys.get(name, {}).get("incl_s", 0.0) for name in builds),
        "soc.builds": sum(calls(name) for name in builds),
        "runner.self_s": selfs.get("runner", 0.0),
        "runner.specs": keys.get("runner.ParallelRunner.run", {}).get("tally", 0),
        "runner.cache_writes": calls("runner.ResultCache.put"),
        "harness.self_s": selfs.get("harness", 0.0),
        "trace.overhead": _ratio(traced_wall_s, untraced_wall_s),
        "trace.unattributed_share": _ratio(selfs.get(UNATTRIBUTED, 0.0), total),
    }
    return metrics
