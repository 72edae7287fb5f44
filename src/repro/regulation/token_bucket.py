"""A discrete-time token bucket.

The accounting core shared by credit-carrying regulator modes.  Time
is integer cycles; refills happen in whole-period steps (matching an
RTL implementation where a period counter triggers a credit adder),
not continuously.

Invariants (property-tested in ``tests/regulation/test_token_bucket.py``):

* tokens never exceed ``capacity``;
* tokens never go negative through ``try_consume`` (only explicit
  ``force_consume(..., allow_debt=True)`` creates a signed deficit,
  which future refills repay before any balance accrues);
* over any span of ``k`` whole periods, at most
  ``initial_tokens + k * refill_amount`` tokens can be consumed.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RegulationError


class TokenBucket:
    """Integer token bucket with periodic whole-step refill.

    Args:
        capacity: Maximum tokens the bucket can hold.
        refill_amount: Tokens added at each period boundary.
        refill_period: Cycles between refills.
        initial: Starting tokens (defaults to ``capacity``).
        start: Cycle of the first period's beginning.
    """

    def __init__(
        self,
        capacity: int,
        refill_amount: int,
        refill_period: int,
        initial: Optional[int] = None,
        start: int = 0,
    ) -> None:
        if capacity < 1:
            raise RegulationError(f"capacity must be >= 1, got {capacity}")
        if refill_amount < 0:
            raise RegulationError(f"refill_amount must be >= 0, got {refill_amount}")
        if refill_period < 1:
            raise RegulationError(f"refill_period must be >= 1, got {refill_period}")
        if initial is not None and not 0 <= initial <= capacity:
            raise RegulationError(
                f"initial tokens {initial} outside [0, {capacity}]"
            )
        self.capacity = capacity
        self.refill_amount = refill_amount
        self.refill_period = refill_period
        self._tokens = capacity if initial is None else initial
        self._last_refill = start
        #: Whole refill periods applied so far (each period boundary
        #: is one "window reset" of the owning regulator).
        self.refills = 0

    # ------------------------------------------------------------------
    # time advance
    # ------------------------------------------------------------------
    # repro: hot -- on every bucket read
    def _advance(self, now: int) -> None:
        if now < self._last_refill:
            raise RegulationError(
                f"token bucket driven backwards: {now} < {self._last_refill}"
            )
        periods = (now - self._last_refill) // self.refill_period
        if periods:
            self._tokens = min(
                self.capacity, self._tokens + periods * self.refill_amount
            )
            self._last_refill += periods * self.refill_period
            self.refills += periods

    # ------------------------------------------------------------------
    # queries / operations
    # ------------------------------------------------------------------
    def tokens_at(self, now: int) -> int:
        """Tokens available at cycle ``now`` (advances internal time)."""
        self._advance(now)
        return self._tokens

    def peek_tokens(self, now: int) -> int:
        """Tokens that would be available at ``now``, without mutating.

        The read-only twin of :meth:`tokens_at` for observers (probe
        reads): applying pending refills here would be idempotent for
        the balance, but it would advance ``refills`` -- an observable
        counter -- so a pure computation keeps sampled and unsampled
        runs identical.  ``now`` in the past simply reports the
        current balance.
        """
        if now <= self._last_refill:
            return self._tokens
        periods = (now - self._last_refill) // self.refill_period
        if not periods:
            return self._tokens
        return min(self.capacity, self._tokens + periods * self.refill_amount)

    def try_consume(self, amount: int, now: int) -> bool:
        """Atomically consume ``amount`` tokens if available."""
        if amount < 0:
            raise RegulationError(f"cannot consume negative amount {amount}")
        self._advance(now)
        if amount > self._tokens:
            return False
        self._tokens -= amount
        return True

    # repro: hot -- once per charged transaction
    def force_consume(self, amount: int, now: int, allow_debt: bool = False) -> None:
        """Consume unconditionally.

        Args:
            amount: Tokens to take.
            now: Current cycle.
            allow_debt: When True the balance may go negative (a
                signed credit counter: future refills first repay the
                debt).  When False the balance clamps at zero (a
                saturating counter that forgives overdraw).
        """
        if amount < 0:
            raise RegulationError(f"cannot consume negative amount {amount}")
        self._advance(now)
        self._tokens -= amount
        if not allow_debt and self._tokens < 0:
            self._tokens = 0

    def next_available(self, amount: int, now: int) -> int:
        """First cycle at which ``amount`` tokens will be available.

        Assumes no further consumption in the meantime.

        Raises:
            RegulationError: if ``amount`` exceeds what the bucket can
                ever hold (``capacity``) or refill can never supply it.
        """
        if amount > self.capacity:
            raise RegulationError(
                f"request of {amount} exceeds bucket capacity {self.capacity}"
            )
        self._advance(now)
        if self._tokens >= amount:
            return now
        if self.refill_amount == 0:
            raise RegulationError("bucket never refills; request cannot be met")
        deficit = amount - self._tokens
        periods = -(-deficit // self.refill_amount)  # ceil division
        return self._last_refill + periods * self.refill_period

    def horizon(self, now: int) -> int:
        """First refill-period boundary strictly after ``now``.

        Pure (no ``_advance``), so reading it moves neither
        ``refills`` nor ``_last_refill``.  Between two boundaries the
        balance can only shrink (charges), which is why a denial of a
        bucket-backed regulator holds strictly inside
        ``(now, horizon(now))`` (see
        ``TightlyCoupledRegulator.denied_until``).
        """
        period = self.refill_period
        anchor = self._last_refill
        if now < anchor:
            return anchor
        return anchor + ((now - anchor) // period + 1) * period

    def reconfigure(
        self,
        now: int,
        capacity: Optional[int] = None,
        refill_amount: Optional[int] = None,
    ) -> None:
        """Change capacity and/or refill amount at cycle ``now``.

        Tokens are clamped into the new capacity, mirroring a register
        write in the RTL implementation.
        """
        self._advance(now)
        if capacity is not None:
            if capacity < 1:
                raise RegulationError(f"capacity must be >= 1, got {capacity}")
            self.capacity = capacity
            self._tokens = min(self._tokens, capacity)
        if refill_amount is not None:
            if refill_amount < 0:
                raise RegulationError("refill_amount must be >= 0")
            self.refill_amount = refill_amount
