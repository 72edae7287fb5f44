"""Unit + property tests for the token bucket."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RegulationError
from repro.regulation.token_bucket import TokenBucket


class TestBasics:
    def test_starts_full_by_default(self):
        tb = TokenBucket(capacity=100, refill_amount=10, refill_period=50)
        assert tb.tokens_at(0) == 100

    def test_initial_tokens(self):
        tb = TokenBucket(100, 10, 50, initial=5)
        assert tb.tokens_at(0) == 5

    def test_consume_and_refill(self):
        tb = TokenBucket(100, 40, 50)
        assert tb.try_consume(100, 0)
        assert tb.tokens_at(0) == 0
        assert tb.tokens_at(49) == 0
        assert tb.tokens_at(50) == 40
        assert tb.tokens_at(149) == 80

    def test_refill_caps_at_capacity(self):
        tb = TokenBucket(100, 40, 50)
        tb.try_consume(10, 0)
        assert tb.tokens_at(1000) == 100

    def test_failed_consume_leaves_tokens(self):
        tb = TokenBucket(100, 10, 50, initial=30)
        assert not tb.try_consume(31, 0)
        assert tb.tokens_at(0) == 30

    def test_force_consume_clamps(self):
        tb = TokenBucket(100, 10, 50, initial=5)
        tb.force_consume(50, 0)
        assert tb.tokens_at(0) == 0

    def test_force_consume_with_debt_goes_negative(self):
        tb = TokenBucket(100, 10, 50, initial=5)
        tb.force_consume(50, 0, allow_debt=True)
        assert tb.tokens_at(0) == -45
        # Refills repay the debt before balance accrues.
        assert tb.tokens_at(250) == 5

    def test_next_available_accounts_for_debt(self):
        tb = TokenBucket(100, 10, 50, initial=0)
        tb.force_consume(20, 0, allow_debt=True)
        # Needs 30 tokens of refill: 3 periods.
        assert tb.next_available(10, 0) == 150

    def test_time_cannot_go_backwards(self):
        tb = TokenBucket(100, 10, 50)
        tb.tokens_at(100)
        with pytest.raises(RegulationError):
            tb.tokens_at(99)


class TestNextAvailable:
    def test_immediately_available(self):
        tb = TokenBucket(100, 10, 50)
        assert tb.next_available(100, 7) == 7

    def test_waits_whole_periods(self):
        tb = TokenBucket(100, 10, 50, initial=0, start=0)
        # Needs 25 tokens: 3 refills of 10 -> ready at cycle 150.
        assert tb.next_available(25, 0) == 150

    def test_partial_progress_counted(self):
        tb = TokenBucket(100, 10, 50, initial=5)
        assert tb.next_available(15, 0) == 50

    def test_request_above_capacity_rejected(self):
        tb = TokenBucket(100, 10, 50)
        with pytest.raises(RegulationError):
            tb.next_available(101, 0)

    def test_never_refilling_bucket_rejected(self):
        tb = TokenBucket(100, 0, 50, initial=0)
        with pytest.raises(RegulationError):
            tb.next_available(1, 0)

    def test_prediction_is_exact(self):
        tb = TokenBucket(64, 16, 10, initial=0)
        at = tb.next_available(40, 3)
        assert tb.tokens_at(at) >= 40
        probe = TokenBucket(64, 16, 10, initial=0)
        assert probe.tokens_at(max(0, at - 10)) < 40


class TestNextAvailableEdges:
    """Edge cases around debt, degenerate refills and saturation."""

    def test_zero_amount_is_immediate(self):
        tb = TokenBucket(100, 10, 50, initial=0)
        assert tb.next_available(0, 33) == 33

    def test_deep_debt_multi_period(self):
        # Debt of 95 + request of 10: 105 tokens of refill = 11 periods.
        tb = TokenBucket(100, 10, 50, initial=5)
        tb.force_consume(100, 0, allow_debt=True)
        assert tb.tokens_at(0) == -95
        assert tb.next_available(10, 0) == 11 * 50

    def test_debt_prediction_is_exact(self):
        tb = TokenBucket(64, 16, 10, initial=0)
        tb.force_consume(40, 0, allow_debt=True)
        at = tb.next_available(24, 0)
        probe = TokenBucket(64, 16, 10, initial=0)
        probe.force_consume(40, 0, allow_debt=True)
        assert probe.tokens_at(at) >= 24
        probe2 = TokenBucket(64, 16, 10, initial=0)
        probe2.force_consume(40, 0, allow_debt=True)
        assert probe2.tokens_at(at - 10) < 24

    def test_zero_refill_satisfiable_from_balance(self):
        # refill_amount == 0 only raises when a wait would be needed.
        tb = TokenBucket(100, 0, 50, initial=30)
        assert tb.next_available(30, 5) == 5
        with pytest.raises(RegulationError):
            tb.next_available(31, 5)

    def test_debt_with_zero_refill_rejected(self):
        tb = TokenBucket(100, 0, 50, initial=10)
        tb.force_consume(10, 0, allow_debt=True)
        with pytest.raises(RegulationError):
            tb.next_available(1, 0)

    def test_refill_smaller_than_amount_needs_ceil_periods(self):
        # Fractional periods don't exist: 7 tokens at 3/period -> 3
        # periods, not 2.33.
        tb = TokenBucket(100, 3, 20, initial=0)
        assert tb.next_available(7, 0) == 60

    def test_saturated_bucket_is_always_immediate(self):
        tb = TokenBucket(100, 10, 50)
        # Long idle: balance saturates at capacity, never beyond --
        # a full-capacity request is still immediately grantable.
        assert tb.tokens_at(10_000) == 100
        assert tb.next_available(100, 10_000) == 10_000

    def test_midperiod_now_rounds_to_boundary(self):
        # Asking mid-period must land on the *next* whole boundary
        # relative to the bucket's refill anchor, not now + period.
        tb = TokenBucket(100, 10, 50, initial=0)
        assert tb.next_available(10, 37) == 50

    def test_oversized_request_rejected_even_when_in_debt(self):
        tb = TokenBucket(100, 10, 50, initial=0)
        tb.force_consume(50, 0, allow_debt=True)
        with pytest.raises(RegulationError):
            tb.next_available(101, 0)


class TestHorizon:
    """The pure refill-boundary probe behind ``denied_until``."""

    def test_first_boundary_strictly_after_now(self):
        tb = TokenBucket(100, 10, 50)
        assert tb.horizon(0) == 50
        assert tb.horizon(49) == 50
        assert tb.horizon(50) == 100

    def test_pure_no_state_advance(self):
        tb = TokenBucket(100, 40, 50)
        tb.try_consume(100, 0)
        tb.horizon(499)
        # A mutating read at an earlier cycle still succeeds: horizon
        # must not have advanced the bucket clock.
        assert tb.tokens_at(50) == 40

    def test_tracks_refill_anchor_after_advance(self):
        tb = TokenBucket(100, 10, 50, initial=0)
        tb.tokens_at(120)  # anchor moves to 100
        assert tb.horizon(120) == 150
        assert tb.horizon(150) == 200

    @given(
        period=st.integers(1, 500),
        advance=st.integers(0, 5_000),
        probe=st.integers(0, 5_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_horizon_property(self, period, advance, probe):
        tb = TokenBucket(100, 10, period)
        tb.tokens_at(advance)
        now = advance + probe
        at = tb.horizon(now)
        assert at > now
        assert at - now <= period
        # Boundary alignment relative to the anchor.
        assert (at - tb._last_refill) % period == 0


class TestReconfigure:
    def test_shrink_clamps_tokens(self):
        tb = TokenBucket(100, 10, 50)
        tb.reconfigure(0, capacity=30)
        assert tb.tokens_at(0) == 30

    def test_refill_amount_change(self):
        tb = TokenBucket(100, 10, 50, initial=0)
        tb.reconfigure(0, refill_amount=100)
        assert tb.tokens_at(50) == 100

    def test_invalid_values_rejected(self):
        tb = TokenBucket(100, 10, 50)
        with pytest.raises(RegulationError):
            tb.reconfigure(0, capacity=0)
        with pytest.raises(RegulationError):
            tb.reconfigure(0, refill_amount=-1)


class TestConstructionValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(capacity=0, refill_amount=1, refill_period=1),
            dict(capacity=10, refill_amount=-1, refill_period=1),
            dict(capacity=10, refill_amount=1, refill_period=0),
            dict(capacity=10, refill_amount=1, refill_period=1, initial=11),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(RegulationError):
            TokenBucket(**kwargs)


class TestInvariantProperties:
    @given(
        capacity=st.integers(1, 10_000),
        refill=st.integers(0, 5_000),
        period=st.integers(1, 1_000),
        ops=st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 2_000)),
            max_size=60,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_tokens_bounded_and_conservation(self, capacity, refill, period, ops):
        tb = TokenBucket(capacity, refill, period)
        now = 0
        consumed = 0
        for amount, advance in ops:
            now += advance
            if tb.try_consume(min(amount, capacity), now):
                consumed += min(amount, capacity)
            tokens = tb.tokens_at(now)
            assert 0 <= tokens <= capacity
        # Conservation: total consumed cannot exceed the initial fill
        # plus everything refilled over the elapsed whole periods.
        max_supply = capacity + (now // period) * refill
        assert consumed <= max_supply

    @given(
        amount=st.integers(1, 100),
        initial=st.integers(0, 100),
        refill=st.integers(1, 50),
        period=st.integers(1, 100),
    )
    @settings(max_examples=150, deadline=None)
    def test_next_available_is_tight(self, amount, initial, refill, period):
        tb = TokenBucket(100, refill, period, initial=initial)
        at = tb.next_available(amount, 0)
        # Sufficient at the predicted time...
        probe = TokenBucket(100, refill, period, initial=initial)
        assert probe.tokens_at(at) >= amount
        # ...and (when a wait happened) insufficient one period before.
        if at > 0:
            probe2 = TokenBucket(100, refill, period, initial=initial)
            assert probe2.tokens_at(max(0, at - period)) < amount
