"""Finding and severity primitives shared by the lint engine."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional


class Severity:
    """Finding severities (``ERROR`` findings fail the build)."""

    ERROR = "error"
    WARNING = "warning"

    ORDER = {ERROR: 0, WARNING: 1}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule_id: The violated rule (e.g. ``"DET002"``).
        severity: ``Severity.ERROR`` or ``Severity.WARNING``.
        path: Filesystem path of the offending file as given to the
            engine (what the human/JSON reports print).
        line / col: 1-based line and 0-based column of the violation.
        message: Human-oriented description of this occurrence.
        source: The stripped source line, used for the baseline
            fingerprint so entries survive unrelated line drift.
    """

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    source: str = ""

    def fingerprint(self) -> str:
        """Location-independent identity used by the baseline.

        Deliberately excludes the line *number*: a grandfathered
        finding keeps matching its baseline entry when unrelated edits
        move it.  Identical violations on identical source lines share
        a fingerprint; the baseline stores per-fingerprint *counts* so
        adding one more still fails.
        """
        blob = "|".join((self.path, self.rule_id, self.source, self.message))
        return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]

    def format_human(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


def repro_relpath(path: str) -> Optional[str]:
    """Posix path of ``path`` relative to the ``repro`` package root.

    Returns e.g. ``"repro/sim/rng.py"`` for any spelling of a path
    into the package, or ``None`` for files outside it (test
    fixtures, scratch files) -- rules treat those as fully in scope,
    so fixtures exercise every rule regardless of where they live.
    """
    norm = path.replace("\\", "/")
    parts = norm.split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return None
