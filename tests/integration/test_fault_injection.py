"""Robustness tests: misbehaving components and degraded modes.

These inject the failure scenarios a deployed QoS system must either
survive or make visible:

* an actor that violates the envelope it declared at admission time;
* a regulator disabled (budget opened up) at run time;
* a pathological MemGuard configuration (interrupt storm);
* a broken (always-deny) regulator that must not wedge the rest of
  the system.
"""

from repro.analysis.bounds import CoRunnerEnvelope, worst_case_read_latency
from repro.axi.txn import Transaction
from repro.qos.budget import BandwidthBudget
from repro.regulation.base import BandwidthRegulator
from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import PlatformResult, run_experiment
from repro.soc.platform import Platform
from repro.soc.presets import zcu102, zcu102_dram, zcu102_interconnect

MB = 1 << 20


class TestEnvelopeViolation:
    def test_deeper_queues_than_declared_break_the_bound(self):
        """The analytic bound is conditional on declared envelopes: an
        actor running with deeper queues than admitted voids it.  The
        *violating* configuration's bound (recomputed with the true
        envelope) must still hold -- i.e. the analysis itself stays
        sound, only the contract was broken."""
        dram = zcu102_dram()
        declared = [CoRunnerEnvelope(2, 16)] * 4
        actual = [CoRunnerEnvelope(8, 16)] * 4
        bound_declared = worst_case_read_latency(
            dram.timing, zcu102_interconnect(), declared,
            critical_burst_beats=4, frfcfs_cap=dram.frfcfs_cap,
            own_outstanding=2,
        )
        bound_actual = worst_case_read_latency(
            dram.timing, zcu102_interconnect(), actual,
            critical_burst_beats=4, frfcfs_cap=dram.frfcfs_cap,
            own_outstanding=2,
        )
        result = run_experiment(zcu102(num_accels=4, cpu_work=1500))
        measured = result.critical().latency_max
        assert measured <= bound_actual          # analysis sound
        assert bound_declared < bound_actual     # violation visible


class TestRuntimeDegradation:
    def test_opening_a_budget_reintroduces_interference(self):
        spec = RegulatorSpec(
            kind="tightly_coupled", window_cycles=256, budget_bytes=410
        )
        platform = Platform(
            zcu102(num_accels=4, cpu_work=4_000, accel_regulator=spec)
        )
        # Mid-run "failure": someone opens every budget wide.
        def open_all():
            for name in platform.qos_manager.masters:
                platform.qos_manager.set_budget(
                    name, BandwidthBudget(16.0)
                )

        platform.sim.schedule_at(60_000, open_all)
        elapsed = platform.run(4_000_000)
        result = PlatformResult(platform, elapsed)
        # The monitor half records the change: hog bandwidth after the
        # failure far exceeds the original reservation.
        hog_rate = result.master("acc0").bandwidth_bytes_per_cycle
        assert hog_rate > (410 / 256) * 1.3
        # And the reconfiguration log holds the evidence.
        assert len(platform.qos_manager.log) == 4

    def test_memguard_interrupt_storm_is_bounded(self):
        # A budget of one burst per period: every burst overflows.
        spec = RegulatorSpec(
            kind="memguard", period_cycles=2_000, budget_bytes=64,
            interrupt_latency=100,
        )
        platform = Platform(
            zcu102(num_accels=1, cpu_work=500, accel_regulator=spec)
        )
        elapsed = platform.run(4_000_000)
        reg = platform.regulators["acc0"]
        # At most one interrupt per period can fire (the handler
        # throttles until the next tick): the storm is bounded by
        # design, not by luck.
        periods = elapsed // 2_000 + 1
        assert reg.interrupt_count <= periods
        assert reg.overhead_cycles > 0


class _StuckRegulator(BandwidthRegulator):
    """A failed IP that denies everything (stuck-at-throttle)."""

    def may_issue(self, txn: Transaction, now: int) -> bool:
        return False

    def next_opportunity(self, txn: Transaction, now: int) -> int:
        return now + 1_000


class TestStuckRegulator:
    def test_other_masters_unaffected(self, sim, mini_norefresh):
        from repro.traffic.accelerator import (
            AcceleratorConfig,
            StreamAccelerator,
        )
        from repro.traffic.patterns import SequentialPattern

        stuck_port = mini_norefresh.add_port(
            "stuck", regulator=_StuckRegulator()
        )
        healthy_port = mini_norefresh.add_port("healthy")
        stuck = StreamAccelerator(
            sim, stuck_port,
            AcceleratorConfig(
                pattern=SequentialPattern(0, MB, 256), total_bytes=4096
            ),
        )
        healthy = StreamAccelerator(
            sim, healthy_port,
            AcceleratorConfig(
                pattern=SequentialPattern(MB, MB, 256), total_bytes=4096
            ),
        )
        stuck.start()
        healthy.start()
        sim.run(until=100_000)
        assert healthy.done
        assert not stuck.done
        assert stuck_port.stats.counter("completed").value == 0
        # The denial counter makes the stuck IP diagnosable.
        assert stuck_port.stats.counter("regulator_denials").value > 0
