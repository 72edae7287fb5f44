"""``repro.probes``: the live observability plane.

Four layers, each usable on its own:

* :mod:`repro.probes.map` -- the **probe register file**: every
  platform component registers named, addressable, pull-based live
  reads at build time (``platform.probes``);
* :mod:`repro.probes.sampler` -- the **ProbeSampler** observer:
  snapshots a probe selection every N cycles into a preallocated
  ring buffer, bit-identical results whether attached or not;
* :mod:`repro.probes.watch` -- the **terminal renderer** behind
  ``repro watch``, which runs an experiment in process and prints its
  sampled frames;
* :mod:`repro.probes.slo` / :mod:`repro.probes.flightrec` -- the
  **QoS-violation flight recorder**: declarative SLO rules checked
  per frame; violations dump ring history + a Perfetto trace slice
  + a structured report under ``results/flightrec/``.
"""

from repro.probes.flightrec import (
    DEFAULT_FLIGHTREC_DIR,
    FLIGHTREC_ENV,
    SLO_ENV,
    FlightRecorder,
)
from repro.probes.map import Probe, ProbeMap, build_probe_map
from repro.probes.sampler import (
    DEFAULT_PROBE_PERIOD,
    PROBE_PERIOD_ENV,
    ProbeSampler,
    resolve_probe_period,
)
from repro.probes.slo import (
    SloRule,
    SloViolation,
    parse_rules,
    rules_from_json,
)
from repro.probes.watch import WatchView

__all__ = [
    "DEFAULT_FLIGHTREC_DIR",
    "DEFAULT_PROBE_PERIOD",
    "FLIGHTREC_ENV",
    "FlightRecorder",
    "PROBE_PERIOD_ENV",
    "Probe",
    "ProbeMap",
    "ProbeSampler",
    "SLO_ENV",
    "SloRule",
    "SloViolation",
    "WatchView",
    "build_probe_map",
    "parse_rules",
    "resolve_probe_period",
    "rules_from_json",
]
