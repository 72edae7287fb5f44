"""Tests for CMRI-style work-conserving injection."""

from repro.regulation.factory import RegulatorSpec
from repro.regulation.tightly_coupled import (
    TightlyCoupledConfig,
    TightlyCoupledRegulator,
)
from repro.soc.experiment import PlatformResult
from repro.soc.platform import Platform
from repro.soc.presets import zcu102
from repro.axi.txn import Transaction


def txn(nbytes=256):
    return Transaction(
        master="m", is_write=False, addr=0, burst_len=nbytes // 16,
        bytes_per_beat=16,
    )


def make_wc_regulator(sim, idle, **kwargs):
    defaults = dict(window_cycles=100, budget_bytes=256, work_conserving=True)
    defaults.update(kwargs)
    reg = TightlyCoupledRegulator(sim, TightlyCoupledConfig(**defaults))
    reg.attach_idle_probe(idle)
    return reg


class TestInjectionUnit:
    def test_injects_when_idle_and_out_of_credit(self, sim):
        reg = make_wc_regulator(sim, idle=lambda: True)
        reg.charge(txn(256), 0)  # budget gone
        t = txn(256)
        assert reg.may_issue(t, 10)  # idle -> injected
        reg.charge(t, 10)
        assert reg.injected_transactions == 1
        assert reg.injected_bytes == 256

    def test_no_injection_when_busy(self, sim):
        reg = make_wc_regulator(sim, idle=lambda: False)
        reg.charge(txn(256), 0)
        assert not reg.may_issue(txn(256), 10)

    def test_injection_does_not_consume_credit(self, sim):
        reg = make_wc_regulator(sim, idle=lambda: True)
        reg.charge(txn(256), 0)
        tokens_before = reg.tokens_now()
        t = txn(256)
        assert reg.may_issue(t, 0)
        reg.charge(t, 0)
        assert reg.tokens_now() == tokens_before

    def test_credit_admission_charges_even_after_stale_mark(self, sim):
        # A txn marked for injection but re-evaluated after replenish
        # must be charged normally.
        reg = make_wc_regulator(sim, idle=lambda: True)
        reg.charge(txn(256), 0)
        t = txn(256)
        assert reg.may_issue(t, 10)   # injection mark set
        # Window rolls; re-evaluation admits by credit now.
        assert reg.may_issue(t, 100)
        reg.charge(t, 100)
        assert reg.injected_transactions == 0
        assert reg.charged_bytes == 2 * 256

    def test_no_probe_means_no_injection(self, sim):
        reg = TightlyCoupledRegulator(
            sim,
            TightlyCoupledConfig(
                window_cycles=100, budget_bytes=256, work_conserving=True
            ),
        )
        reg.charge(txn(256), 0)
        assert not reg.may_issue(txn(256), 10)

    def test_poll_shortens_next_opportunity(self, sim):
        reg = make_wc_regulator(sim, idle=lambda: False, window_cycles=1000)
        reg.charge(txn(256), 0)
        assert reg.next_opportunity(txn(256), 5) == 5 + reg.INJECT_POLL_CYCLES

    def test_without_wc_next_opportunity_is_credit_based(self, sim):
        reg = TightlyCoupledRegulator(
            sim, TightlyCoupledConfig(window_cycles=1000, budget_bytes=256)
        )
        reg.charge(txn(256), 0)
        assert reg.next_opportunity(txn(256), 5) == 1000


class TestInjectionSystem:
    def _run(self, work_conserving):
        spec = RegulatorSpec(
            kind="tightly_coupled",
            window_cycles=256,
            budget_bytes=410,
            work_conserving=work_conserving,
        )
        platform = Platform(
            zcu102(num_accels=4, cpu_work=1500, accel_regulator=spec)
        )
        elapsed = platform.run(4_000_000)
        return platform, PlatformResult(platform, elapsed)

    def test_injection_raises_throughput(self):
        _p0, plain = self._run(False)
        p1, conserving = self._run(True)
        bw_plain = sum(
            plain.master(f"acc{i}").bandwidth_bytes_per_cycle for i in range(4)
        )
        bw_wc = sum(
            conserving.master(f"acc{i}").bandwidth_bytes_per_cycle
            for i in range(4)
        )
        assert bw_wc > bw_plain * 1.2
        assert sum(r.injected_transactions for r in p1.regulators.values()) > 0

    def test_injection_keeps_critical_impact_bounded(self):
        _p0, plain = self._run(False)
        _p1, conserving = self._run(True)
        # Injection uses idle bandwidth: the critical task's runtime
        # stays close to the plain regulated case.
        assert (
            conserving.critical_runtime() <= plain.critical_runtime() * 1.25
        )

    def test_charged_supply_invariant_still_holds(self):
        p1, result = self._run(True)
        for reg in p1.regulators.values():
            windows = result.elapsed // reg.window_cycles
            supply = reg.config.capacity_bytes + windows * reg.budget_bytes
            assert reg.charged_bytes - reg.injected_bytes <= supply
