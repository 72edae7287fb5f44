"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError`, so
callers can catch a single type at the API boundary.  Subclasses mark
the subsystem in which the error originated.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SimulationError(ReproError):
    """The simulation kernel detected an impossible state.

    Examples: scheduling an event in the past, running a simulator
    that has already been finalized, or an event callback raising
    during dispatch.
    """


class ProtocolError(ReproError):
    """A component violated the transaction-level AXI protocol.

    Examples: completing a transaction twice, issuing more outstanding
    transactions than the port allows, or returning a response for a
    transaction the interconnect never accepted.
    """


class RegulationError(ReproError):
    """A regulator was configured or driven inconsistently.

    Examples: a negative budget, a zero-length replenish window, or
    charging a transaction that was never admitted.
    """


class CacheError(ReproError):
    """A result-cache entry is unreadable or inconsistent.

    Raised (and caught) internally by :mod:`repro.runner.cache` to
    mark a poisoned entry; poisoning costs a recompute, never
    correctness, so this error does not normally escape the cache.
    """


class ProbeError(ReproError):
    """The live probe plane was configured or driven inconsistently.

    Examples: registering two probes under one name, selecting a
    pattern that matches nothing, a malformed SLO rule, or an SLO
    bound on a probe the sampler does not sample.
    """


class CheckError(ReproError):
    """Base class for the correctness-tooling layer (``repro.checks``)."""


class LintError(CheckError):
    """The static lint engine itself failed.

    Examples: an unreadable or syntactically invalid input file, a
    corrupt baseline file, or a rule registered under a duplicate id.
    Rule *findings* are data, not exceptions; this error means the
    engine could not produce findings at all.
    """


class SanitizerError(CheckError):
    """The runtime kernel sanitizer detected an invariant violation.

    Examples: a dispatch-time rewind, or scheduler occupancy
    accounting that disagrees with the queue's actual contents.  The
    message carries the offending event's provenance.
    """
