"""The regulator interface.

A regulator lives inline on a :class:`~repro.axi.port.MasterPort`.
The port consults it on every address handshake:

1. ``may_issue(txn, now)`` -- combinational admission decision;
2. ``charge(txn, now)`` -- called when the handshake is accepted;
3. ``next_opportunity(txn, now)`` -- when admission was denied, the
   first cycle at which retrying can succeed (lets the simulation
   stay event-driven instead of polling);
4. ``denied_until(txn, now)`` -- when admission was denied, the cycle
   before which the denial is guaranteed to hold.  The port parks the
   queue until then (the stall is a level signal, as in the RTL), so
   a denied head costs one check per denial episode, not one per
   arbitration pass.

Regulators are also *monitors*: they observe the traffic they police
and export total and per-window counters.  Run-time reconfiguration goes through
``set_budget_bytes`` whose effect latency is regulator-specific (a
few bus cycles for the tightly-coupled IP, the next period boundary
for software MemGuard).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import RegulationError
from repro.axi.txn import Transaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.axi.port import MasterPort


class BandwidthRegulator:
    """Abstract base of all regulators."""

    def __init__(self) -> None:
        self.port: Optional["MasterPort"] = None
        self.charged_bytes = 0
        self.charged_transactions = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_port(self, port: "MasterPort") -> None:
        """Attach to the port this regulator polices."""
        if self.port is not None:
            raise RegulationError("regulator bound to two ports")
        self.port = port
        self._on_bind(port)

    def _on_bind(self, port: "MasterPort") -> None:
        """Subclass hook: subscribe observers, seed state."""

    # ------------------------------------------------------------------
    # the admission interface used by the port
    # ------------------------------------------------------------------
    def may_issue(self, txn: Transaction, now: int) -> bool:
        """Is this transaction's address phase admissible *now*?"""
        raise NotImplementedError

    def charge(self, txn: Transaction, now: int) -> None:
        """Account an accepted transaction.

        Subclasses must call ``super().charge(...)`` to keep the
        monitor totals consistent.
        """
        self.charged_bytes += txn.nbytes
        self.charged_transactions += 1

    def next_opportunity(self, txn: Transaction, now: int) -> int:
        """Earliest cycle a denied transaction could be admitted."""
        raise NotImplementedError

    def denied_until(self, txn: Transaction, now: int) -> int:
        """Cycle before which a just-denied ``txn`` stays denied.

        Called right after ``may_issue(txn, now)`` returned False.  The
        contract: on this regulator, ``may_issue(txn, t)`` stays False
        for every ``t`` in ``[now, denied_until)`` unless the regulator
        calls :meth:`_release` first -- charges of other traffic may
        happen in between, so only policies whose credit can only
        shrink between releases may return more than ``now``.  Such a
        policy must also keep ``next_opportunity`` from moving earlier
        over that span.

        The base class returns ``now``: no guarantee, so the port asks
        again on every arbitration pass.
        """
        return now

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------
    def set_budget_bytes(self, budget_bytes: int, now: int) -> int:
        """Request a new per-window byte budget.

        Args:
            budget_bytes: New budget (meaning is regulator-specific).
            now: Current cycle.

        Returns:
            The cycle at which the new budget takes effect.

        Raises:
            RegulationError: if the regulator has no notion of budget.
        """
        raise RegulationError(f"{type(self).__name__} does not support budgets")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _release(self) -> None:
        """Tell the port that credit became available."""
        if self.port is not None:
            self.port.regulator_released()
