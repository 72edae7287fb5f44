"""Transaction-level AXI interconnect model (substrate S2).

The model works at the granularity of AXI *transactions* (an address
phase plus a burst of data beats).  This is the level at which both
the bandwidth monitor and the regulator of the reproduced paper
operate: the regulator gates address-channel handshakes, and the
monitor counts data beats.  Wire-level AXI signalling below this
abstraction does not change arbitration outcomes or per-window byte
counts, so it is intentionally not modelled.

Key classes:

* :class:`repro.axi.txn.Transaction` -- one burst transfer with its
  full timestamp lifecycle.
* :class:`repro.axi.port.MasterPort` -- per-master entry point that
  enforces outstanding limits and hosts the (optional) regulator.
* :class:`repro.axi.interconnect.Interconnect` -- the crossbar /
  arbiter between master ports and the DRAM controller port.
* :mod:`repro.axi.arbiter` -- round-robin and QoS-400-style
  arbitration policies.
"""

from repro.axi.arbiter import (
    Arbiter,
    QosArbiter,
    RoundRobinArbiter,
    make_arbiter,
)
from repro.axi.interconnect import Interconnect, InterconnectConfig
from repro.axi.port import MasterPort, PortConfig
from repro.axi.txn import Transaction

__all__ = [
    "Arbiter",
    "QosArbiter",
    "RoundRobinArbiter",
    "make_arbiter",
    "Interconnect",
    "InterconnectConfig",
    "MasterPort",
    "PortConfig",
    "Transaction",
]
