"""The ``repro check deep`` driver: whole-program analyses.

Where ``repro check lint`` runs per-module rules, ``deep`` builds the
project symbol table and call graph (:mod:`repro.checks.graph`) and
runs the analyses that need them:

* **hot-path propagation** -- HOT discipline findings for every
  function transitively reachable from a ``# repro: hot`` anchor,
  not just the anchored bodies;
* **CONC** -- fork- and event-loop-boundary rules
  (:mod:`repro.checks.rules.conc`).

The per-file half of the scan (parse + symbol extraction + the
location-bound fact tables) is embarrassingly parallel and fans out
over the existing :class:`~repro.runner.pool.WorkerPool`; results
merge order-independently because ``map`` returns submission order.
Serial execution is the fallback wherever pools cannot run.

Baselining mirrors the linter but uses its own file
(``.repro-deep-baseline.json``): propagation can surface legitimate
debt in code that never opted into HOT discipline, and recording it
beats hiding it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from repro.checks.baseline import load_baseline, write_baseline
from repro.checks.engine import REGISTRY, all_rules, iter_python_files
from repro.checks.findings import Finding, Severity, finding_sort_key
from repro.checks.graph import (
    GRAPH_REGISTRY,
    ModuleSymbols,
    ProjectIndex,
    all_graph_rules,
    extract_symbols,
)

__all__ = [
    "DEFAULT_DEEP_BASELINE",
    "DeepResult",
    "scan_file",
    "scan_paths",
    "run_deep",
    "format_deep_report",
    "run_deep_cli",
]

#: Default deep baseline, relative to the working directory.
DEFAULT_DEEP_BASELINE = ".repro-deep-baseline.json"

#: File count below which forking a pool costs more than it saves.
_PARALLEL_THRESHOLD = 16


def scan_file(path: str) -> ModuleSymbols:
    """Pool-worker entry point (module-level so it pickles)."""
    return extract_symbols(path)


def scan_paths(
    paths: Sequence[str], jobs: Optional[int] = None
) -> List[ModuleSymbols]:
    """Extract symbols for every python file under ``paths``.

    Args:
        paths: Files and/or directories.
        jobs: Worker processes; ``None``/``0`` picks automatically
            (serial below :data:`_PARALLEL_THRESHOLD` files), ``1``
            forces serial.  Pool failure always falls back to serial.
    """
    files = list(iter_python_files(paths))
    if jobs is None or jobs == 0:
        import os

        jobs = min(8, os.cpu_count() or 1)
        if len(files) < _PARALLEL_THRESHOLD:
            jobs = 1
    if jobs > 1 and len(files) > 1:
        from repro.runner.pool import PoolUnavailable, WorkerPool

        pool = WorkerPool(min(jobs, len(files)), scan_file)
        try:
            return pool.map(files)
        except PoolUnavailable:
            pass  # restricted environment: fall through to serial
        finally:
            pool.close()
    return [scan_file(path) for path in files]


@dataclass
class DeepResult:
    """Outcome of one deep run."""

    findings: List[Finding]  #: live findings (baseline applied)
    baselined: List[Finding]
    suppressed: int
    files: int
    analyses: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARNING]


def _hot_analysis(
    index: ProjectIndex,
) -> Tuple[List[Finding], Dict[str, object]]:
    """Propagated HOT findings plus the ``hot`` summary block."""
    roots = [fn.qualname for fn in index.functions_with_anchor("hot")]
    reachable = index.reachable(roots)
    findings: List[Finding] = []
    for qual in sorted(reachable):
        findings.extend(index.functions[qual].hot_findings)
    summary: Dict[str, object] = {
        "roots": sorted(roots),
        "anchored": len(roots),
        "reachable": len(reachable),
        "propagated": len(reachable) - len(set(roots) & reachable),
    }
    return findings, summary


def run_deep(
    paths: Sequence[str],
    baseline: Optional[Dict[str, int]] = None,
    jobs: Optional[int] = None,
) -> DeepResult:
    """Scan, index, and run every whole-program analysis."""
    from repro.checks.rules import conc

    modules = scan_paths(paths, jobs)
    index = ProjectIndex(modules)
    suppressed = sum(m.suppressed for m in modules)

    raw: List[Finding] = []
    hot_findings, hot_summary = _hot_analysis(index)
    raw.extend(hot_findings)
    for rule_ in all_graph_rules():
        for finding, was_suppressed in rule_.check(index):
            if was_suppressed:
                suppressed += 1
            else:
                raw.append(finding)

    raw.sort(key=finding_sort_key)
    remaining = dict(baseline or {})
    live: List[Finding] = []
    grandfathered: List[Finding] = []
    for finding in raw:
        fp = finding.fingerprint()
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
            grandfathered.append(finding)
        else:
            live.append(finding)

    return DeepResult(
        findings=live,
        baselined=grandfathered,
        suppressed=suppressed,
        files=len(modules),
        analyses={
            "hot": hot_summary,
            "conc": conc.analysis_summary(index),
        },
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------
_SARIF_LEVEL = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _sarif_rules(result: DeepResult) -> List[Dict[str, object]]:
    """Rule metadata for every rule id appearing in the report."""
    ids = sorted({f.rule_id for f in result.findings + result.baselined})
    all_rules()  # ensure REGISTRY is populated
    catalogue: Dict[str, Tuple[str, str]] = {}
    for registry in (REGISTRY, GRAPH_REGISTRY):
        for rid, rule_ in registry.items():
            catalogue[rid] = (rule_.description, rule_.severity)
    out = []
    for rid in ids:
        description, severity = catalogue.get(rid, (rid, Severity.ERROR))
        out.append({
            "id": rid,
            "shortDescription": {"text": description},
            "defaultConfiguration": {
                "level": _SARIF_LEVEL.get(severity, "error")
            },
        })
    return out


def _sarif_result(finding: Finding, baselined: bool) -> Dict[str, object]:
    entry: Dict[str, object] = {
        "ruleId": finding.rule_id,
        "level": _SARIF_LEVEL.get(finding.severity, "error"),
        "message": {"text": finding.message},
        "partialFingerprints": {"reproFingerprint": finding.fingerprint()},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {
                    "startLine": finding.line,
                    "startColumn": finding.col + 1,
                },
            },
        }],
    }
    if baselined:
        entry["suppressions"] = [{"kind": "external"}]
    return entry


def format_deep_report(result: DeepResult, fmt: str = "human") -> str:
    """Render a :class:`DeepResult` as human text, JSON, or SARIF."""
    if fmt == "json":
        return json.dumps(
            {
                "files": result.files,
                "errors": len(result.errors),
                "warnings": len(result.warnings),
                "suppressed": result.suppressed,
                "baselined": len(result.baselined),
                "analyses": result.analyses,
                "findings": [f.to_dict() for f in result.findings],
            },
            indent=2,
        )
    if fmt == "sarif":
        return json.dumps(
            {
                "$schema": (
                    "https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
                ),
                "version": "2.1.0",
                "runs": [{
                    "tool": {
                        "driver": {
                            "name": "repro-check-deep",
                            "informationUri": (
                                "https://example.invalid/repro/docs/"
                                "static-analysis"
                            ),
                            "rules": _sarif_rules(result),
                        },
                    },
                    "results": (
                        [_sarif_result(f, False) for f in result.findings]
                        + [_sarif_result(f, True) for f in result.baselined]
                    ),
                }],
            },
            indent=2,
        )
    lines: List[str] = [f.format_human() for f in result.findings]
    for finding in result.baselined:
        lines.append(f"{finding.format_human()} (baselined)")
    hot = result.analyses.get("hot", {})
    conc = result.analyses.get("conc", {})
    lines.append(
        f"hot set: {hot.get('reachable', 0)} reachable from "
        f"{hot.get('anchored', 0)} anchors "
        f"({hot.get('propagated', 0)} by propagation)"
    )
    lines.append(
        f"workers: {conc.get('worker_reachable', 0)} functions reachable "
        f"from {len(conc.get('worker_roots', []))} pool root(s); "
        f"async: {conc.get('async_reachable', 0)} from "
        f"{conc.get('async_roots', 0)} handler(s)"
    )
    lines.append(
        f"{result.files} files: {len(result.errors)} errors, "
        f"{len(result.warnings)} warnings, {result.suppressed} suppressed, "
        f"{len(result.baselined)} baselined"
    )
    return "\n".join(lines)


def run_deep_cli(
    paths: Sequence[str],
    baseline_path: Optional[str] = None,
    fmt: str = "human",
    update_baseline: bool = False,
    jobs: Optional[int] = None,
    stream: Optional[TextIO] = None,
) -> int:
    """Full CLI behaviour; returns the process exit code.

    Exit codes mirror ``repro check lint``: 0 clean (warnings
    allowed), 1 error findings, 2 engine failure (via
    :class:`repro.errors.LintError` translated by the CLI).
    """
    if stream is None:
        stream = sys.stdout  # resolved per call so capture hooks see it
    target = baseline_path or DEFAULT_DEEP_BASELINE
    baseline = load_baseline(target)
    result = run_deep(paths, baseline=baseline, jobs=jobs)
    if update_baseline:
        write_baseline(target, result.findings + result.baselined)
        print(
            f"baseline {target}: "
            f"{len(result.findings) + len(result.baselined)} findings "
            "recorded",
            file=stream,
        )
        return 0
    print(format_deep_report(result, fmt), file=stream)
    return 1 if result.errors else 0
