"""Builtin rule families.

Importing this package registers every rule in
:data:`repro.checks.engine.REGISTRY`:

* ``DET`` -- determinism: wall-clock reads, the global ``random``
  module, environment reads outside the config layer, iteration over
  sets where order reaches results (:mod:`.det`).
* ``HOT`` -- hot-path discipline inside ``# repro: hot`` functions:
  no comprehensions, closures, ``**`` fan-out, or repeated attribute
  chains in loops (:mod:`.hot`).
* ``ERR`` -- error hygiene: raise :mod:`repro.errors` types, not
  blanket builtins (:mod:`.err`).
* ``API`` -- surface hygiene: no wildcard imports, no mutable
  default arguments (:mod:`.api`).
"""

from repro.checks.rules import api, det, err, hot

__all__ = ["api", "det", "err", "hot"]
