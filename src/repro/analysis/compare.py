"""Comparing two runs.

:func:`critical_summary` answers "same system, two configurations,
what changed for the critical master?": the tail-latency, mean-latency
and completion-time ratios between two
:class:`~repro.soc.experiment.PlatformResult` objects.
"""

from __future__ import annotations

from typing import Dict

from repro.soc.experiment import PlatformResult


def _ratio(after: float, before: float) -> float:
    if before == 0:
        return float("inf") if after else 1.0
    return after / before


def critical_summary(
    before: PlatformResult, after: PlatformResult
) -> Dict[str, float]:
    """The headline deltas for the critical master."""
    b, a = before.critical(), after.critical()
    out: Dict[str, float] = {
        "p99_ratio": _ratio(a.latency_p99, b.latency_p99),
        "mean_ratio": _ratio(a.latency_mean, b.latency_mean),
    }
    if b.finished_at and a.finished_at:
        out["runtime_ratio"] = _ratio(a.finished_at, b.finished_at)
    return out
