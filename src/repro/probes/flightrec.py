"""QoS-violation flight recorder.

Evaluates :class:`~repro.probes.slo.SloRule` bounds against every
sampled probe frame and, on the first violation, dumps the evidence:

* ``violation.json`` -- the violated rule, the offending value and
  cycle, probe metadata, and run context (spec hash etc.);
* ``history.json`` -- the sampler's full ring-buffer history *up to
  and including* the violating frame (the pre-violation trajectory a
  post-hoc report can never reconstruct);
* ``trace.json`` -- the same history as Chrome/Perfetto counter
  tracks (one ``ph: "C"`` series per probe, 1 cycle = 1 µs, plus an
  instant marker at the violation), loadable in ui.perfetto.dev.

Dumps land under ``results/flightrec/dump_<k>/`` (override with the
``REPRO_FLIGHTREC`` env knob); ``<k>`` is the next free index in the
directory -- never a wall-clock timestamp, keeping dump naming
deterministic (the DET lint discipline).

:meth:`FlightRecorder.from_env` arms a recorder from environment
knobs alone (``REPRO_SLO`` = rules as inline JSON or a file path),
which is how benchmark and CLI runs inject SLOs without touching
:class:`~repro.runner.spec.RunSpec` hashing.
"""

from __future__ import annotations

# repro: config-layer -- resolves REPRO_SLO / REPRO_FLIGHTREC knobs
import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProbeError
from repro.probes.sampler import ProbeSampler
from repro.probes.slo import SloRule, SloViolation, rules_from_json
from repro.telemetry.log import get_logger

_log = get_logger(__name__)

#: Env knob: flight-recorder output directory.
FLIGHTREC_ENV = "REPRO_FLIGHTREC"

#: Env knob: SLO rules -- inline JSON list or a path to a JSON file.
SLO_ENV = "REPRO_SLO"

#: Default dump root (relative to the working directory).
DEFAULT_FLIGHTREC_DIR = os.path.join("results", "flightrec")


def load_rules(raw: str) -> List[SloRule]:
    """SLO rules from inline JSON (a list) or a path to a JSON file.

    Raises:
        ProbeError: the rules are malformed or the file is unreadable.
    """
    raw = raw.strip()
    if raw.startswith("["):
        return rules_from_json(raw)
    try:
        with open(raw, encoding="utf-8") as fh:
            return rules_from_json(fh.read())
    except OSError as exc:
        raise ProbeError(f"SLO rules {raw!r}: cannot read file: {exc}") from None


class FlightRecorder:
    """Watches probe frames for SLO violations and dumps evidence.

    Args:
        rules: The SLO bounds to enforce.
        out_dir: Dump root directory (default ``results/flightrec``).
        max_dumps: Stop dumping after this many violations (default 1:
            the first violation is the interesting one; later frames
            of the same excursion would dump near-identical history).
        context: Extra key/values recorded in ``violation.json``
            (spec hash, experiment label, ...).
    """

    def __init__(
        self,
        rules: Sequence[SloRule],
        out_dir: Optional[str] = None,
        max_dumps: int = 1,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        if max_dumps < 1:
            raise ProbeError(f"max_dumps must be >= 1, got {max_dumps}")
        self.rules: List[SloRule] = list(rules)
        self.out_dir = out_dir or DEFAULT_FLIGHTREC_DIR
        self.max_dumps = max_dumps
        self.context: Dict[str, Any] = dict(context or {})
        #: Violations that produced a dump, in order.
        self.violations: List[SloViolation] = []
        #: Dump directories written, matching :attr:`violations`.
        self.dump_dirs: List[str] = []
        self._sampler: Optional[ProbeSampler] = None
        self._indexed: List[Tuple[SloRule, int]] = []

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_env(
        context: Optional[Dict[str, Any]] = None,
        slo: Optional[str] = None,
        out_dir: Optional[str] = None,
    ) -> Optional["FlightRecorder"]:
        """Recorder configured from ``REPRO_SLO``/``REPRO_FLIGHTREC``.

        ``slo`` and ``out_dir``, when given, take precedence over the
        two knobs (this is how ``repro watch --slo/--flightrec`` arm
        it).  Returns ``None`` when no rules are given and
        ``REPRO_SLO`` is unset/empty (the common case: no recorder, no
        sampler, zero overhead).

        Raises:
            ProbeError: the rules are malformed or unreadable.
        """
        raw = (slo or os.environ.get(SLO_ENV, "")).strip()
        if not raw:
            return None
        out_dir = out_dir or os.environ.get(FLIGHTREC_ENV, "").strip() or None
        return FlightRecorder(load_rules(raw), out_dir=out_dir, context=context)

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self, sampler: ProbeSampler) -> None:
        """Subscribe to a sampler's frames.

        Rules are resolved to row indices once here, so the per-frame
        check is an index + compare per rule.

        Raises:
            ProbeError: a rule names a probe the sampler does not
                sample, or the recorder is already armed.
        """
        if self._sampler is not None:
            raise ProbeError("flight recorder already armed")
        names = sampler.names
        indexed: List[Tuple[SloRule, int]] = []
        for rule in self.rules:
            try:
                indexed.append((rule, names.index(rule.probe)))
            except ValueError:
                raise ProbeError(
                    f"SLO rule {rule.name!r}: probe {rule.probe!r} is not "
                    f"in the sampled set"
                ) from None
        self._sampler = sampler
        self._indexed = indexed
        sampler.consumers.append(self._on_frame)

    # ------------------------------------------------------------------
    # per-frame evaluation
    # ------------------------------------------------------------------
    def _on_frame(
        self, now: int, names: Tuple[str, ...], row: List[Any]
    ) -> None:
        if len(self.dump_dirs) >= self.max_dumps:
            return
        for rule, index in self._indexed:
            value = row[index]
            if rule.violated(value):
                self._dump(SloViolation(rule=rule, time=now, value=value))
                return

    # ------------------------------------------------------------------
    # dumping
    # ------------------------------------------------------------------
    def _next_dump_dir(self) -> str:
        """First free ``dump_<k>`` directory (deterministic naming).

        The slot is claimed with an exclusive ``mkdir`` instead of
        list-then-create: two recorders sharing an ``out_dir`` (e.g.
        two ``repro watch`` processes) race the listing, but only one
        of two concurrent ``mkdir`` calls on the same path can
        succeed, so the loser simply probes the next index.
        """
        os.makedirs(self.out_dir, exist_ok=True)
        k = 0
        while True:
            path = os.path.join(self.out_dir, f"dump_{k:03d}")
            try:
                os.mkdir(path)
            except FileExistsError:
                k += 1
                continue
            return path

    def _dump(self, violation: SloViolation) -> None:
        assert self._sampler is not None
        sampler = self._sampler
        history = sampler.frames()
        dump_dir = self._next_dump_dir()
        report = {
            "violation": violation.to_dict(),
            "rules": [rule.to_dict() for rule in self.rules],
            "probes": sampler.map.describe(sampler.probes),
            "context": self.context,
            "sample_period": sampler.period,
            "frames_retained": len(history),
            "frames_sampled": sampler.frames_sampled,
            "frames_dropped": sampler.frames_dropped,
        }
        with open(
            os.path.join(dump_dir, "violation.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        with open(
            os.path.join(dump_dir, "history.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(history, fh, indent=2)
        with open(
            os.path.join(dump_dir, "trace.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(self._trace_slice(history, violation), fh)
        self.violations.append(violation)
        self.dump_dirs.append(dump_dir)
        _log.warning(
            "flight recorder: SLO %s violated at cycle %d (value %s); "
            "dumped %d frames to %s",
            violation.rule.name, violation.time, violation.value,
            len(history), dump_dir,
        )

    def _trace_slice(
        self, history: List[Dict[str, Any]], violation: SloViolation
    ) -> Dict[str, Any]:
        """Chrome trace-event JSON: one counter track per probe."""
        events: List[Dict[str, Any]] = []
        for frame in history:
            ts = frame["time"]
            for name, value in frame["values"].items():
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": ts,
                        "pid": 1,
                        "tid": 1,
                        "args": {"value": value},
                    }
                )
        events.append(
            {
                "name": f"SLO violation: {violation.rule.name}",
                "ph": "i",
                "s": "g",
                "ts": violation.time,
                "pid": 1,
                "tid": 1,
                "args": {"value": violation.value},
            }
        )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"violation": violation.rule.name},
        }
