"""End-to-end integration tests across the full stack."""

from repro.analysis.metrics import slowdown
from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import run_experiment, run_solo_baseline
from repro.soc.presets import zcu102

CPU_WORK = 1500


class TestConservation:
    def test_bytes_conserved_port_to_dram(self):
        result = run_experiment(zcu102(num_accels=2, cpu_work=CPU_WORK))
        port_bytes = sum(m.bytes_moved for m in result.masters.values())
        # The DRAM services every accepted transaction; it may have
        # moved a few more whose responses were still in flight when
        # the run stopped.
        assert result.dram.bytes_moved >= port_bytes
        inflight_allowance = sum(
            p.config.max_outstanding * 256
            for p in result.platform.ports.values()
        )
        assert result.dram.bytes_moved - port_bytes <= inflight_allowance

    def test_transactions_conserved(self):
        result = run_experiment(zcu102(num_accels=2, cpu_work=CPU_WORK))
        completed = sum(m.completed for m in result.masters.values())
        assert result.dram.serviced >= completed


class TestDeterminism:
    def test_same_seed_identical_results(self):
        a = run_experiment(zcu102(num_accels=3, cpu_work=CPU_WORK, seed=11))
        b = run_experiment(zcu102(num_accels=3, cpu_work=CPU_WORK, seed=11))
        assert a.critical_runtime() == b.critical_runtime()
        for name in a.masters:
            assert a.master(name).bytes_moved == b.master(name).bytes_moved
            assert a.master(name).latency_p99 == b.master(name).latency_p99

    def test_seed_changes_random_workload(self):
        config_a = zcu102(
            num_accels=0, cpu_workload="pointer_chase",
            cpu_work=CPU_WORK, seed=1,
        )
        config_b = zcu102(
            num_accels=0, cpu_workload="pointer_chase",
            cpu_work=CPU_WORK, seed=2,
        )
        a = run_experiment(config_a)
        b = run_experiment(config_b)
        # Different address streams -> (almost surely) different runtimes.
        assert a.critical_runtime() != b.critical_runtime()


class TestInterferenceShape:
    def test_slowdown_grows_with_hog_count(self):
        runtimes = []
        for hogs in (0, 2, 6):
            result = run_experiment(zcu102(num_accels=hogs, cpu_work=CPU_WORK))
            runtimes.append(result.critical_runtime())
        assert runtimes[0] < runtimes[1] < runtimes[2]

    def test_unregulated_slowdown_is_severe(self):
        solo = run_experiment(zcu102(num_accels=0, cpu_work=CPU_WORK))
        loaded = run_experiment(zcu102(num_accels=6, cpu_work=CPU_WORK))
        s = slowdown(loaded.critical_runtime(), solo.critical_runtime())
        assert s > 3.0


class TestRegulationProtects:
    def test_tc_regulation_reduces_slowdown(self):
        solo = run_experiment(zcu102(num_accels=0, cpu_work=CPU_WORK))
        unreg = run_experiment(zcu102(num_accels=4, cpu_work=CPU_WORK))
        spec = RegulatorSpec(
            kind="tightly_coupled", window_cycles=1024, budget_bytes=1024
        )
        reg = run_experiment(
            zcu102(num_accels=4, cpu_work=CPU_WORK, accel_regulator=spec)
        )
        s_unreg = slowdown(unreg.critical_runtime(), solo.critical_runtime())
        s_reg = slowdown(reg.critical_runtime(), solo.critical_runtime())
        assert s_reg < s_unreg
        assert s_reg < 2.0

    def test_regulated_hogs_share_residual_bandwidth(self):
        spec = RegulatorSpec(
            kind="tightly_coupled", window_cycles=1024, budget_bytes=2048
        )
        result = run_experiment(
            zcu102(num_accels=4, cpu_work=CPU_WORK, accel_regulator=spec)
        )
        rates = [
            result.master(f"acc{i}").bandwidth_bytes_per_cycle
            for i in range(4)
        ]
        configured = 2048 / 1024
        for rate in rates:
            assert rate <= configured * 1.05
        # Fairness: equal budgets -> near-equal achieved rates.
        assert max(rates) - min(rates) < 0.2

    def test_static_qos_helps_latency_but_not_rate(self):
        unreg = run_experiment(
            zcu102(num_accels=4, cpu_work=CPU_WORK, arbiter="round_robin")
        )
        qos = run_experiment(
            zcu102(num_accels=4, cpu_work=CPU_WORK, arbiter="qos",
                   scheduler="frfcfs_qos",
                   cpu_regulator=RegulatorSpec(kind="static_qos", qos=15))
        )
        # Priority ordering (crossbar + QoS-aware DDR scheduler) helps
        # the critical core...
        assert qos.critical_runtime() < unreg.critical_runtime()
        # ...but does not bound what the hogs draw: they still pull
        # several B/cycle, far above any reservation a QoS policy
        # would grant them (e.g. 10% of peak = 1.6 B/cycle total).
        hog_rate = sum(
            qos.master(f"acc{i}").bandwidth_bytes_per_cycle for i in range(4)
        )
        assert hog_rate > 4.0


class TestSoloBaselineHelper:
    def test_solo_baseline_close_to_isolated_preset(self):
        config = zcu102(num_accels=4, cpu_work=CPU_WORK)
        solo_via_helper = run_solo_baseline(config, "cpu0")
        solo_direct = run_experiment(zcu102(num_accels=0, cpu_work=CPU_WORK))
        assert (
            solo_via_helper.critical_runtime()
            == solo_direct.critical_runtime()
        )
