"""Static AXI QoS "regulation" (ordering, not rate control).

The QoS-400-style baseline: the port's transactions carry a fixed
AXI QoS value and the interconnect uses a
:class:`~repro.axi.arbiter.QosArbiter`.  No handshake is ever stalled;
this class exists so the baseline plugs into the same regulator slot
and exports the same monitoring, making the E4/E5 comparisons
uniform.  Its failure mode -- priority reorders service but cannot
bound a hog's drawn bandwidth -- is visible in those experiments.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RegulationError
from repro.axi.port import MasterPort
from repro.axi.txn import Transaction
from repro.monitor.window import WindowedBandwidthMonitor
from repro.regulation.base import BandwidthRegulator


class StaticQosRegulator(BandwidthRegulator):
    """Stamp a static AXI QoS value; admit everything.

    Args:
        qos: AXI QoS value (0..15) stamped on the port's traffic.
        monitor_window: Optional bandwidth-monitor window width.
    """

    def __init__(self, qos: int, monitor_window: Optional[int] = None) -> None:
        super().__init__()
        if not 0 <= qos <= 15:
            raise RegulationError(f"qos {qos} outside AXI range 0..15")
        self.qos = qos
        self._monitor_window = monitor_window
        self.monitor: Optional[WindowedBandwidthMonitor] = None

    def _on_bind(self, port: MasterPort) -> None:
        if self._monitor_window:
            self.monitor = WindowedBandwidthMonitor(port, self._monitor_window)

    # repro: hot
    def may_issue(self, txn: Transaction, now: int) -> bool:
        # Stamping in the admission check guarantees the arbiter sees
        # the value on the first arbitration of this transaction.
        txn.qos = self.qos
        return True

    # repro: hot
    def next_opportunity(self, txn: Transaction, now: int) -> int:
        return now
