"""Unit tests for declarative platform construction."""

import pytest

from repro.errors import ConfigError
from repro.regulation.factory import RegulatorSpec
from repro.regulation.tightly_coupled import TightlyCoupledRegulator
from repro.soc.platform import MasterSpec, Platform, PlatformConfig


def spec(name="m0", workload="latency_probe", critical=False, regulator=None,
         work=100, start_at=0):
    return MasterSpec(
        name=name,
        workload=workload,
        region_base=0x1000_0000,
        region_extent=1 << 20,
        work=work,
        regulator=regulator,
        critical=critical,
        start_at=start_at,
    )


class TestConfigValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            PlatformConfig(masters=(spec("a"), spec("a")))

    def test_empty_platform_rejected(self):
        with pytest.raises(ConfigError):
            Platform(PlatformConfig(masters=()))

    def test_only_filters_masters(self):
        config = PlatformConfig(masters=(spec("a"), spec("b")))
        solo = config.only("a")
        assert [m.name for m in solo.masters] == ["a"]

    def test_only_unknown_rejected(self):
        config = PlatformConfig(masters=(spec("a"),))
        with pytest.raises(ConfigError):
            config.only("ghost")

    def test_peak_rate_exposed(self):
        config = PlatformConfig(masters=(spec("a"),))
        assert config.peak_bytes_per_cycle == 16.0


class TestConstruction:
    def test_builds_all_components(self):
        config = PlatformConfig(
            masters=(
                spec("cpu0", critical=True),
                spec("acc0", workload="stream_read", work=4096,
                     regulator=RegulatorSpec(kind="tightly_coupled")),
            )
        )
        platform = Platform(config)
        assert set(platform.ports) == {"cpu0", "acc0"}
        assert set(platform.masters) == {"cpu0", "acc0"}
        assert isinstance(platform.regulators["acc0"], TightlyCoupledRegulator)
        assert platform.qos_manager.masters == ["acc0"]
        assert platform.critical_names == ["cpu0"]

    def test_unregulated_master_has_no_regulator(self):
        platform = Platform(PlatformConfig(masters=(spec("m0"),)))
        assert platform.regulators == {}
        assert platform.ports["m0"].regulator is None

    def test_accessors_validate(self):
        platform = Platform(PlatformConfig(masters=(spec("m0"),)))
        with pytest.raises(ConfigError):
            platform.master("ghost")
        with pytest.raises(ConfigError):
            platform.port("ghost")


class TestExecution:
    def test_run_completes_bounded_work(self):
        platform = Platform(PlatformConfig(masters=(spec("m0", work=50),)))
        platform.run(1_000_000)
        assert platform.masters["m0"].done

    def test_stop_when_critical_done(self):
        config = PlatformConfig(
            masters=(
                spec("cpu0", critical=True, work=100),
                spec("acc0", workload="stream_read", work=None),
            )
        )
        platform = Platform(config)
        end = platform.run(10_000_000)
        assert platform.masters["cpu0"].done
        # Run ended at the critical finish, far before the horizon.
        assert end == platform.masters["cpu0"].finished_at
        assert end < 10_000_000

    def test_horizon_respected_without_critical(self):
        config = PlatformConfig(
            masters=(spec("acc0", workload="stream_read", work=None),)
        )
        platform = Platform(config)
        end = platform.run(50_000)
        assert end == 50_000

    def test_start_at_staggers_masters(self):
        config = PlatformConfig(
            masters=(spec("m0", work=1, start_at=7_000),)
        )
        platform = Platform(config)
        platform.run(1_000_000)
        assert platform.masters["m0"].finished_at > 7_000

    def test_max_cycles_validation(self):
        platform = Platform(PlatformConfig(masters=(spec("m0"),)))
        with pytest.raises(ConfigError):
            platform.run(0)

    def test_trace_masters_recorded(self):
        config = PlatformConfig(
            masters=(spec("m0", work=10),), trace_masters=("m0",)
        )
        platform = Platform(config)
        platform.run(1_000_000)
        assert len(platform.trace) == 10

    def test_zcu102_event_count_is_pinned(self):
        # The kernel's per-transaction event cost, pinned on the paper
        # platform: an arbitration pass is only queued when some port
        # can still offer a head.  Cycle and per-port completions are
        # those of the model; the event count is its host cost.
        from repro.soc.presets import zcu102

        platform = Platform(zcu102(num_accels=4, cpu_work=4000))
        assert platform.run(2_000_000) == 566_676
        assert platform.sim.events_dispatched == 149_048
        completed = {
            name: port.stats.counter("completed").value
            for name, port in platform.ports.items()
        }
        assert completed == {
            "cpu0": 4000, "acc0": 6224, "acc1": 6224, "acc2": 6216, "acc3": 6216,
        }
