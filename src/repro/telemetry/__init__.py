"""Observability plane: logging, profiling, trace export, run reports.

The reproduced paper is about *monitoring tightly coupled to
regulation*; this package is the equivalent plane for the
reproduction itself.  Component counters are not kept here: each
component counts once, in its :class:`~repro.sim.stats.StatSet`, and
the platform's probe map (:mod:`repro.probes.map`) reads every count
by name -- ``platform.probes.snapshot()`` is the end-of-run metrics
summary.  The pieces here are all optional and cheap to leave in
place:

* :mod:`repro.telemetry.log` -- the package logging helper
  (``get_logger``), one stderr handler under the ``repro`` root
  logger, level from ``REPRO_LOG_LEVEL``.
* :mod:`repro.telemetry.profiler` -- a wall-clock phase profiler
  attributing host time and event counts per component handler.
* :mod:`repro.telemetry.perfetto` -- Chrome/Perfetto trace-event
  export of transaction lifecycles and regulator throttle intervals.
* :mod:`repro.telemetry.runreport` -- JSON reports of how a runner
  batch executed (timing, cache behaviour, dedup).
"""

from repro.telemetry.log import (
    LOG_LEVEL_ENV,
    get_logger,
)
from repro.telemetry.perfetto import TraceEventSink, export_platform_trace
from repro.telemetry.profiler import PhaseProfiler, profile_experiment
from repro.telemetry.runreport import RunnerTelemetry, write_runner_report

__all__ = [
    "LOG_LEVEL_ENV",
    "PhaseProfiler",
    "RunnerTelemetry",
    "TraceEventSink",
    "export_platform_trace",
    "get_logger",
    "profile_experiment",
    "write_runner_report",
]
