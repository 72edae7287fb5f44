"""Lint front-end: run the engine over paths, format, exit-code.

This is what ``repro check lint`` calls::

    repro check lint src/                 # human output, exit 1 on errors
    repro check lint src/ --format json   # machine-readable findings
    repro check lint src/ --write-baseline  # grandfather current findings
    repro check lint --list-rules         # the rule catalogue

The baseline defaults to ``.repro-lint-baseline.json`` in the working
directory; the shipped tree keeps it empty.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional, Sequence, TextIO

from repro.checks.baseline import DEFAULT_BASELINE, load_baseline, write_baseline
from repro.checks.engine import LintEngine, LintResult, all_rules

__all__ = ["lint_paths", "format_report", "run_lint"]


def lint_paths(
    paths: Sequence[str],
    baseline_path: Optional[str] = None,
) -> LintResult:
    """Lint ``paths`` with every registered rule.

    Args:
        paths: Files and/or directories.
        baseline_path: Baseline file; ``None`` uses the default
            location (an absent file means an empty baseline).
    """
    baseline = load_baseline(baseline_path or DEFAULT_BASELINE)
    return LintEngine(baseline=baseline).run(paths)


def format_report(result: LintResult, fmt: str = "human") -> str:
    """Render a :class:`~repro.checks.engine.LintResult`."""
    if fmt == "json":
        return json.dumps(
            {
                "files": result.files,
                "errors": len(result.errors),
                "warnings": len(result.warnings),
                "suppressed": result.suppressed,
                "baselined": len(result.baselined),
                "findings": [f.to_dict() for f in result.findings],
            },
            indent=2,
        )
    lines: List[str] = [f.format_human() for f in result.findings]
    for finding in result.baselined:
        lines.append(f"{finding.format_human()} (baselined)")
    lines.append(
        f"{result.files} files: {len(result.errors)} errors, "
        f"{len(result.warnings)} warnings, {result.suppressed} suppressed, "
        f"{len(result.baselined)} baselined"
    )
    return "\n".join(lines)


def format_rule_catalogue() -> str:
    """One line per registered rule (``--list-rules``)."""
    lines = []
    for rule_ in all_rules():
        lines.append(
            f"{rule_.id}  [{rule_.family}/{rule_.severity}]  "
            f"{rule_.description}"
        )
    return "\n".join(lines)


def run_lint(
    paths: Sequence[str],
    baseline_path: Optional[str] = None,
    fmt: str = "human",
    update_baseline: bool = False,
    stream: Optional[TextIO] = None,
) -> int:
    """Full CLI behaviour; returns the process exit code.

    Exit codes: 0 clean (warnings allowed), 1 error findings,
    2 engine failure (raised as :class:`repro.errors.LintError` by
    the callee and translated by the CLI).
    """
    if stream is None:
        stream = sys.stdout  # resolved per call so capture hooks see it
    result = lint_paths(paths, baseline_path)
    if update_baseline:
        target = baseline_path or DEFAULT_BASELINE
        write_baseline(target, result.findings + result.baselined)
        print(
            f"baseline {target}: {len(result.findings)} findings recorded",
            file=stream,
        )
        return 0
    print(format_report(result, fmt), file=stream)
    return 1 if result.errors else 0
