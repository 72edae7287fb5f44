"""Differential tests for the steady-state fast-forward engine.

The engine's contract is byte-identical result tables whether or not
it runs.  These tests drive regulation-bound open-loop scenarios (the
engine's target shape) and irregular scenarios (where it must
decline), and compare full run summaries exactly -- no tolerances.  A separate engagement test
guards against the detector declining everything, which would make
the identity assertions vacuous.
"""

from dataclasses import replace

import pytest

from repro.sim.kernel import Simulator, resolve_fastforward

from benchmarks.common import memguard_spec, tc_spec
from repro.soc.experiment import PlatformResult
from repro.soc.platform import MasterSpec, Platform, PlatformConfig
from tests.sim.reference_queue import QUEUES, use_queue

#: Short but multi-window horizon: dozens of refill boundaries, a few
#: DRAM refresh daemon ticks, thousands of arrivals.
HORIZON = 40_000

REGION_BASE = 0x1000_0000
REGION_BYTES = 4 << 20


def steady_config(num_streams=1, regulator=None, seed=3):
    """Open-loop stream(s) under tight regulation: the steady
    regulation-bound shape the engine macro-steps."""
    if regulator is None:
        regulator = tc_spec(0.01, window_cycles=1024)
    masters = tuple(
        MasterSpec(
            name=f"olp{i}",
            workload="open_loop_stream",
            region_base=REGION_BASE + i * REGION_BYTES,
            region_extent=REGION_BYTES,
            regulator=regulator,
        )
        for i in range(num_streams)
    )
    return PlatformConfig(masters=masters, seed=seed)


def run_table(config, monkeypatch, fastforward, horizon=HORIZON):
    """One full run -> (summary json, kernel stats)."""
    monkeypatch.setenv("REPRO_FASTFORWARD", "1" if fastforward else "0")
    platform = Platform(config)
    elapsed = platform.run(horizon, stop_when_critical_done=False)
    result = PlatformResult(platform, elapsed)
    return result.summary().to_json(), platform.sim.kernel_stats()


class TestResolve:
    def test_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_FASTFORWARD", raising=False)
        assert resolve_fastforward() is False

    @pytest.mark.parametrize("value", ["1", "on", "yes", "true"])
    def test_on_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_FASTFORWARD", value)
        assert resolve_fastforward() is True

    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTFORWARD", "1")
        assert resolve_fastforward(False) is False

    def test_platform_attaches_engine_only_for_open_loop(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTFORWARD", "1")
        assert Platform(steady_config()).fastforward is not None
        closed = PlatformConfig(
            masters=(
                MasterSpec(
                    name="acc0",
                    workload="stream_read",
                    region_base=REGION_BASE,
                    region_extent=REGION_BYTES,
                ),
            )
        )
        assert Platform(closed).fastforward is None
        monkeypatch.setenv("REPRO_FASTFORWARD", "0")
        assert Platform(steady_config()).fastforward is None


class TestEngagement:
    def test_macro_steps_the_steady_region(self, monkeypatch):
        """The detector must actually fire on the target shape -- and
        replace the bulk of the event traffic with walked arrivals."""
        _table, stats = run_table(steady_config(), monkeypatch, fastforward=True)
        _ref, ref_stats = run_table(steady_config(), monkeypatch, fastforward=False)
        assert stats["ff_regions"] > 10
        assert stats["ff_arrivals"] > 1000
        assert stats["ff_cycles_skipped"] > HORIZON // 2
        assert stats["events_dispatched"] < ref_stats["events_dispatched"] // 5

    def test_clock_lands_on_the_horizon(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTFORWARD", "1")
        platform = Platform(steady_config())
        elapsed = platform.run(HORIZON, stop_when_critical_done=False)
        assert elapsed == HORIZON
        assert platform.sim.now == HORIZON

    def test_declines_unregulated_streams(self, monkeypatch):
        """No regulator -> nothing is analytically blocked; the engine
        must never fire (arrivals are being serviced)."""
        config = PlatformConfig(
            masters=(
                MasterSpec(
                    name="olp0",
                    workload="open_loop_stream",
                    region_base=REGION_BASE,
                    region_extent=REGION_BYTES,
                ),
            )
        )
        _table, stats = run_table(config, monkeypatch, fastforward=True, horizon=5_000)
        assert stats["ff_regions"] == 0


class TestByteIdentity:
    def test_steady_single_stream(self, monkeypatch):
        off, _ = run_table(steady_config(), monkeypatch, fastforward=False)
        on, stats = run_table(steady_config(), monkeypatch, fastforward=True)
        assert stats["ff_regions"] > 0  # identity must not be vacuous
        assert on == off

    @pytest.mark.parametrize("scheduler", sorted(QUEUES))
    def test_steady_multi_stream(self, monkeypatch, scheduler):
        use_queue(monkeypatch, scheduler)
        config = steady_config(num_streams=3)
        off, _ = run_table(config, monkeypatch, fastforward=False)
        on, stats = run_table(config, monkeypatch, fastforward=True)
        assert stats["ff_regions"] > 0
        assert on == off

    def test_memguard_regulated_stream(self, monkeypatch):
        config = steady_config(
            regulator=memguard_spec(0.01, period_cycles=2048)
        )
        off, _ = run_table(config, monkeypatch, fastforward=False)
        on, stats = run_table(config, monkeypatch, fastforward=True)
        assert stats["ff_regions"] > 0
        assert on == off

    def test_irregular_mixed_platform(self, monkeypatch):
        """A closed-loop CPU co-runner makes most of the run
        non-advanceable; whatever regions remain must still be exact."""
        config = PlatformConfig(
            masters=(
                MasterSpec(
                    name="cpu0",
                    workload="latency_probe",
                    region_base=REGION_BASE,
                    region_extent=REGION_BYTES,
                    work=300,
                ),
                MasterSpec(
                    name="olp0",
                    workload="open_loop_stream",
                    region_base=REGION_BASE + REGION_BYTES,
                    region_extent=REGION_BYTES,
                    regulator=tc_spec(0.02, window_cycles=512),
                ),
            ),
            seed=5,
        )
        off, _ = run_table(config, monkeypatch, fastforward=False)
        on, _ = run_table(config, monkeypatch, fastforward=True)
        assert on == off

    def test_bounded_stream_work(self, monkeypatch):
        """num_requests exhaustion inside a region: the walk must stop
        exactly where the per-event stream would."""
        config = steady_config()
        # work is bytes for accel workloads: 600 requests.
        config = config.with_masters([replace(config.masters[0], work=600 * 64)])
        off, _ = run_table(config, monkeypatch, fastforward=False)
        on, _ = run_table(config, monkeypatch, fastforward=True)
        assert on == off


class TestKernelStatsSurface:
    def test_ff_counters_only_when_attached(self):
        stats = Simulator().kernel_stats()
        assert "ff_regions" not in stats
        assert stats["events_dispatched"] == 0

    def test_ff_counters_reported(self, monkeypatch):
        _table, stats = run_table(
            steady_config(), monkeypatch, fastforward=True,
            horizon=5_000,
        )
        assert set(
            ("ff_regions", "ff_cycles_skipped", "ff_arrivals")
        ) <= set(stats)
