"""Tests for the shared regulator provisioner."""

from repro.regulation.factory import RegulatorSpec
from repro.regulation.memguard import MemGuardRegulator
from repro.regulation.prem import PremRegulator
from repro.regulation.tdma import TdmaRegulator
from repro.regulation.tightly_coupled import TightlyCoupledRegulator
from repro.soc.hierarchy import TwoLevelConfig, TwoLevelPlatform
from repro.soc.platform import MasterSpec
from repro.soc.provision import RegulatorProvisioner

MB = 1 << 20


class TestProvisioner:
    def test_none_spec(self, sim):
        prov = RegulatorProvisioner(sim, [None])
        assert prov.build(None) is None
        assert prov.build(RegulatorSpec(kind="none")) is None

    def test_stagger_assigns_distinct_phases(self, sim):
        spec = RegulatorSpec(kind="tightly_coupled", window_cycles=400)
        prov = RegulatorProvisioner(sim, [spec, spec, spec, spec])
        regs = [prov.build(spec) for _ in range(4)]
        phases = sorted(r.config.window_phase for r in regs)
        assert phases == [0, 100, 200, 300]

    def test_single_regulator_not_staggered(self, sim):
        spec = RegulatorSpec(kind="tightly_coupled", window_cycles=400)
        prov = RegulatorProvisioner(sim, [spec])
        assert prov.build(spec).config.window_phase == 0

    def test_explicit_phase_preserved(self, sim):
        spec = RegulatorSpec(kind="tightly_coupled", window_phase=77)
        prov = RegulatorProvisioner(sim, [spec, spec])
        assert prov.build(spec).config.window_phase == 77

    def test_tdma_frame_shared_and_slots_distinct(self, sim):
        spec = RegulatorSpec(kind="tdma", window_cycles=200, tdma_slots=5)
        prov = RegulatorProvisioner(sim, [spec, spec])
        a, b = prov.build(spec), prov.build(spec)
        assert a.schedule is b.schedule is prov.tdma_schedule
        assert {a.slot_index, b.slot_index} == {0, 1}
        assert prov.tdma_schedule.num_slots == 5

    def test_prem_controller_shared(self, sim):
        spec = RegulatorSpec(kind="prem")
        prov = RegulatorProvisioner(sim, [spec, spec])
        a, b = prov.build(spec), prov.build(spec)
        assert a.controller is b.controller is prov.prem_controller

    def test_memguard_pool_shared(self, sim):
        spec = RegulatorSpec(kind="memguard", reclaim=True)
        prov = RegulatorProvisioner(sim, [spec, spec])
        a, b = prov.build(spec), prov.build(spec)
        assert a.pool is b.pool is prov.reclaim_pool

    def test_idle_probe_wired_for_work_conserving(self, sim):
        spec = RegulatorSpec(kind="tightly_coupled", work_conserving=True)
        prov = RegulatorProvisioner(sim, [spec], dram_idle_probe=lambda: True)
        reg = prov.build(spec)
        assert reg._idle_probe is not None

    def test_kind_construction(self, sim):
        prov = RegulatorProvisioner(
            sim,
            [RegulatorSpec(kind="tdma"), RegulatorSpec(kind="prem"),
             RegulatorSpec(kind="memguard")],
        )
        assert isinstance(prov.build(RegulatorSpec(kind="tdma")), TdmaRegulator)
        assert isinstance(prov.build(RegulatorSpec(kind="prem")), PremRegulator)
        assert isinstance(
            prov.build(RegulatorSpec(kind="memguard")), MemGuardRegulator
        )
        assert isinstance(
            prov.build(RegulatorSpec(kind="tightly_coupled")),
            TightlyCoupledRegulator,
        )


class TestHierarchySchemes:
    """TDMA and PREM now work in the two-level topology too."""

    def _config(self, accel_regulator):
        return TwoLevelConfig(
            cpus=(
                MasterSpec(
                    name="cpu0", workload="latency_probe",
                    region_base=0x1000_0000, region_extent=4 * MB,
                    work=400, max_outstanding=4, critical=True,
                ),
            ),
            accels=tuple(
                MasterSpec(
                    name=f"acc{i}", workload="stream_read",
                    region_base=0x2000_0000 + i * 4 * MB,
                    region_extent=4 * MB,
                    regulator=accel_regulator,
                )
                for i in range(2)
            ),
        )

    def test_tdma_in_hierarchy(self):
        spec = RegulatorSpec(kind="tdma", window_cycles=512, tdma_slots=4)
        platform = TwoLevelPlatform(self._config(spec))
        assert platform.tdma_schedule is not None
        slots = {platform.regulators[f"acc{i}"].slot_index for i in range(2)}
        assert slots == {0, 1}
        platform.run(4_000_000)
        assert platform.masters["cpu0"].done

    def test_prem_in_hierarchy_protects_critical(self):
        spec = RegulatorSpec(kind="prem", prem_hold_cycles=1024)
        prem = TwoLevelPlatform(self._config(spec))
        prem.run(4_000_000)
        unreg = TwoLevelPlatform(self._config(None))
        unreg.run(4_000_000)
        assert (
            prem.masters["cpu0"].finished_at
            < unreg.masters["cpu0"].finished_at
        )
