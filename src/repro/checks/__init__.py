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
  grandfathered findings.  HOT rules check exactly the functions that
  carry a ``# repro: hot`` anchor.  Run it with ``repro check lint src/``.
* :mod:`repro.checks.sanitize` -- a runtime event-queue sanitizer
  (``REPRO_SANITIZE=1``) wrapping the kernel's event queue with
  dispatch-order and occupancy assertions that raise
  :class:`repro.errors.SanitizerError` with event provenance.

The package imports nothing eagerly: the kernel loads only the
sanitizer, and the AST engine loads when ``repro check lint`` (or a
direct import of :mod:`repro.checks.lint`) asks for it.

See ``docs/static-analysis.md`` for the rule catalogue and workflow.
"""
