"""Tests for PREM-style mutually-exclusive memory arbitration."""

import pytest

from repro.errors import RegulationError
from repro.regulation.factory import RegulatorSpec, make_regulator
from repro.regulation.prem import PremController, PremRegulator
from repro.soc.experiment import run_experiment
from repro.soc.platform import Platform
from repro.soc.presets import zcu102


class TestControllerUnit:
    def test_validation(self, sim):
        with pytest.raises(RegulationError):
            PremController(sim, max_hold_cycles=0)

    def test_first_requester_gets_token(self, sim, mini_norefresh):
        controller = PremController(sim)
        a = PremRegulator(controller)
        mini_norefresh.add_port("a", regulator=a)
        from repro.axi.txn import Transaction

        txn = Transaction(master="a", is_write=False, addr=0, burst_len=4)
        assert a.may_issue(txn, 0)
        assert controller.holds(a)

    def test_token_mutual_exclusion(self, sim, mini_norefresh):
        controller = PremController(sim)
        a = PremRegulator(controller)
        b = PremRegulator(controller)
        port_a = mini_norefresh.add_port("a", regulator=a)
        mini_norefresh.add_port("b", regulator=b)
        from repro.axi.txn import Transaction

        # Keep "a" wanting the token: give it a queued transaction.
        txn_a = Transaction(master="a", is_write=False, addr=0, burst_len=4)
        port_a.submit(txn_a)
        assert a.may_issue(txn_a, 0)
        txn_b = Transaction(master="b", is_write=False, addr=0, burst_len=4)
        assert not b.may_issue(txn_b, 1)

    def test_expired_holder_preempted(self, sim, mini_norefresh):
        controller = PremController(sim, max_hold_cycles=100)
        a = PremRegulator(controller)
        b = PremRegulator(controller)
        port_a = mini_norefresh.add_port("a", regulator=a)
        port_b = mini_norefresh.add_port("b", regulator=b)
        from repro.axi.txn import Transaction

        port_a.submit(Transaction(master="a", is_write=False, addr=0,
                                  burst_len=4))
        port_b.submit(Transaction(master="b", is_write=False, addr=0,
                                  burst_len=4))
        assert a.may_issue(
            Transaction(master="a", is_write=False, addr=0, burst_len=4), 0
        )
        # Before expiry "b" is refused; after expiry it preempts.
        assert not b.may_issue(
            Transaction(master="b", is_write=False, addr=0, burst_len=4), 50
        )
        assert b.may_issue(
            Transaction(master="b", is_write=False, addr=0, burst_len=4), 150
        )
        assert controller.holds(b)


class TestFactory:
    def test_requires_controller(self, sim):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            make_regulator(RegulatorSpec(kind="prem"), sim)

    def test_with_controller(self, sim):
        controller = PremController(sim)
        reg = make_regulator(
            RegulatorSpec(kind="prem"), sim, prem_controller=controller
        )
        assert isinstance(reg, PremRegulator)


class TestPremSystem:
    def _run(self, hogs=4, hold=1024):
        spec = RegulatorSpec(kind="prem", prem_hold_cycles=hold)
        return run_experiment(
            zcu102(num_accels=hogs, cpu_work=1500, accel_regulator=spec)
        )

    def test_platform_builds_shared_controller(self):
        spec = RegulatorSpec(kind="prem")
        platform = Platform(
            zcu102(num_accels=2, cpu_work=100, accel_regulator=spec)
        )
        assert platform.prem_controller is not None
        regs = [platform.regulators[f"acc{i}"] for i in range(2)]
        assert all(r.controller is platform.prem_controller for r in regs)

    def test_prem_protects_critical(self):
        unreg = run_experiment(zcu102(num_accels=4, cpu_work=1500))
        prem = self._run()
        assert prem.critical_runtime() < unreg.critical_runtime()

    def test_all_hogs_make_progress(self):
        result = self._run()
        for i in range(4):
            assert result.master(f"acc{i}").completed > 0

    def test_hold_bound_rotates_token(self):
        result = self._run(hold=512)
        platform = result.platform
        assert platform.prem_controller.grants > 4  # many rotations
        # Round-robin rotation keeps hog shares roughly equal.
        rates = [
            result.master(f"acc{i}").bandwidth_bytes_per_cycle
            for i in range(4)
        ]
        assert max(rates) < min(rates) * 1.5
