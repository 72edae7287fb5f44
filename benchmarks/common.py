"""Shared helpers for the benchmark harnesses.

Each ``bench_eN_*.py`` regenerates one table/figure of the
(reconstructed) evaluation -- see DESIGN.md section 4 for the index
and EXPERIMENTS.md for expected-vs-measured.  Benchmarks both *print*
the paper-style rows (and persist them under ``benchmarks/results/``)
and *assert* the qualitative shape, so a regression in the modelled
mechanisms fails CI rather than silently changing the figures.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.analysis.sweep import format_table
from repro.regulation.factory import RegulatorSpec
from repro.runner import ParallelRunner, ResultCache, RunSpec, RunSummary
from repro.soc.experiment import DEFAULT_MAX_CYCLES, PlatformResult
from repro.soc.platform import Platform, PlatformConfig
from repro.soc.presets import zcu102
from repro.telemetry import write_runner_report

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Channel peak of the preset (bytes/cycle); shares are against this.
PEAK = 16.0

#: Work quantum of the critical core in benchmark runs (accesses).
CPU_WORK = 3_000

#: Horizon for open-ended (no-critical) runs.
OPEN_HORIZON = 400_000


def report(name: str, rows: List[Dict], title: str, columns=None) -> str:
    """Render, print and persist a result table."""
    text = format_table(rows, columns=columns, title=title)
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    return text


def tc_spec(
    share: float,
    window_cycles: int = 1024,
    **kwargs,
) -> RegulatorSpec:
    """A tightly-coupled spec enforcing ``share`` of channel peak."""
    budget = max(1, round(share * PEAK * window_cycles))
    return RegulatorSpec(
        kind="tightly_coupled",
        window_cycles=window_cycles,
        budget_bytes=budget,
        **kwargs,
    )


def memguard_spec(
    share: float,
    period_cycles: int = 100_000,
    **kwargs,
) -> RegulatorSpec:
    """A MemGuard spec enforcing ``share`` of channel peak."""
    budget = max(1, round(share * PEAK * period_cycles))
    return RegulatorSpec(
        kind="memguard",
        period_cycles=period_cycles,
        budget_bytes=budget,
        **kwargs,
    )


def run_open(config: PlatformConfig, horizon: int = OPEN_HORIZON) -> PlatformResult:
    """Run a platform without early termination, to a fixed horizon."""
    platform = Platform(config)
    elapsed = platform.run(horizon, stop_when_critical_done=False)
    return PlatformResult(platform, elapsed)


# ---------------------------------------------------------------------------
# batched execution (one shared runner per benchmark process)
# ---------------------------------------------------------------------------
_RUNNER: Optional[ParallelRunner] = None


def runner() -> ParallelRunner:
    """The suite-wide :class:`ParallelRunner` (in process, on-disk
    cache unless ``REPRO_CACHE=off``)."""
    global _RUNNER
    if _RUNNER is None:
        _RUNNER = ParallelRunner(cache=ResultCache.from_env())
    return _RUNNER


def run_specs(specs: Sequence[RunSpec]) -> List[RunSummary]:
    """Run a batch of independent specs through the shared runner.

    Each batch also refreshes ``results/runner_telemetry.json`` -- the
    execution report (cache accounting, dedup, per-spec seconds)
    sitting next to the result tables it produced.
    """
    results = runner().run(specs)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    write_runner_report(
        runner(), os.path.join(RESULTS_DIR, "runner_telemetry.json")
    )
    return results


def experiment_spec(
    config: PlatformConfig, max_cycles: int = DEFAULT_MAX_CYCLES, **kwargs
) -> RunSpec:
    """A spec matching :func:`repro.soc.experiment.run_experiment`."""
    return RunSpec(config=config, max_cycles=max_cycles, **kwargs)


def open_spec(
    config: PlatformConfig, horizon: int = OPEN_HORIZON, **kwargs
) -> RunSpec:
    """A spec matching :func:`run_open` (no early termination)."""
    return RunSpec(
        config=config,
        max_cycles=horizon,
        stop_when_critical_done=False,
        **kwargs,
    )


def loaded_config(
    num_accels: int,
    accel_regulator: Optional[RegulatorSpec] = None,
    cpu_work: int = CPU_WORK,
    **kwargs,
) -> PlatformConfig:
    """The standard 1-critical-core + N-hogs scenario."""
    return zcu102(
        num_accels=num_accels,
        cpu_work=cpu_work,
        accel_regulator=accel_regulator,
        **kwargs,
    )
