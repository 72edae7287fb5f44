"""Correctness tooling: the invariant lint engine and runtime sanitizer.

The reproduction's headline claim -- bit-identical QoS results with the
sanitizer and probe sampling on or off -- rests on
invariants nothing in the language enforces: all randomness flows
through seeded :mod:`repro.sim.rng` streams and kernel hot paths stay
allocation-free.  This package enforces them mechanically:

* :mod:`repro.checks.lint` -- an AST-based lint engine with four rule
  families (DET determinism, HOT hot-path discipline, ERR error
  hygiene, API surface hygiene), inline
  ``# repro: allow[RULE]`` suppressions and a baseline file for
  grandfathered findings.  Run it with ``repro check lint src/``.
* :mod:`repro.checks.sanitize` -- a runtime event-queue sanitizer
  (``REPRO_SANITIZE=1``) wrapping the kernel's event queue with
  dispatch-order, pool double-free and occupancy assertions that raise
  :class:`repro.errors.SanitizerError` with event provenance.

See ``docs/static-analysis.md`` for the rule catalogue and workflow.
"""

from repro.checks.engine import LintEngine, ModuleContext, Rule, rule
from repro.checks.findings import Finding, Severity
from repro.checks.lint import lint_paths
from repro.checks.sanitize import SANITIZE_ENV, SanitizingQueue, sanitize_enabled

__all__ = [
    "Finding",
    "LintEngine",
    "lint_paths",
    "ModuleContext",
    "Rule",
    "rule",
    "SANITIZE_ENV",
    "SanitizingQueue",
    "sanitize_enabled",
    "Severity",
]
