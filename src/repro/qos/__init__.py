"""QoS management layer (substrate S7).

Turns datasheet-level intents ("the camera pipeline gets 800 MB/s,
the critical core is protected, best-effort actors share the rest")
into regulator configurations, and drives run-time reconfiguration:

* :mod:`repro.qos.budget` -- budget arithmetic between GB/s,
  bytes-per-cycle and bytes-per-window.
* :mod:`repro.qos.policy` -- partitioning policies over a set of
  masters.
* :mod:`repro.qos.manager` -- the run-time controller that owns the
  regulators and applies policies/budget changes with their modelled
  reprogramming latencies.
"""

from repro.qos.budget import BandwidthBudget
from repro.qos.manager import QosManager
from repro.qos.policy import QosPolicy, critical_plus_besteffort, proportional_shares

__all__ = [
    "BandwidthBudget",
    "QosManager",
    "QosPolicy",
    "critical_plus_besteffort",
    "proportional_shares",
]
