"""Sampler mechanics and the attached-vs-detached differential.

The headline guarantee of the probe plane: attaching a sampler (or the
flight recorder's sampler inside :func:`repro.runner.execute_spec`)
leaves every reported result **byte-identical**, whichever event
queue the kernel dispatches from.
"""

import json

import pytest

from repro.errors import ProbeError
from repro.probes.flightrec import FLIGHTREC_ENV, SLO_ENV
from repro.probes.sampler import (
    DEFAULT_PROBE_PERIOD,
    PROBE_PERIOD_ENV,
    ProbeSampler,
    resolve_probe_period,
)
from repro.runner import RunSpec, execute_spec
from repro.soc.platform import Platform
from repro.soc.presets import zcu102
from tests.sim.reference_queue import QUEUES, use_queue


@pytest.fixture
def platform():
    return Platform(zcu102(num_accels=1, cpu_work=200))


class TestPeriodResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(PROBE_PERIOD_ENV, "999")
        assert resolve_probe_period(128) == 128

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(PROBE_PERIOD_ENV, "2048")
        assert resolve_probe_period() == 2048

    def test_default(self, monkeypatch):
        monkeypatch.delenv(PROBE_PERIOD_ENV, raising=False)
        assert resolve_probe_period() == DEFAULT_PROBE_PERIOD

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(PROBE_PERIOD_ENV, "soon")
        with pytest.raises(ProbeError):
            resolve_probe_period()

    def test_nonpositive_rejected(self):
        with pytest.raises(ProbeError):
            resolve_probe_period(0)


class TestSampling:
    def test_samples_every_period(self, platform):
        sampler = ProbeSampler(
            platform.sim, platform.probes, period=500, capacity=64
        )
        sampler.attach()
        platform.run(10_000, stop_when_critical_done=False)
        assert sampler.frames_sampled == 20
        frames = sampler.frames()
        assert [f["time"] for f in frames[:3]] == [500, 1000, 1500]
        assert frames[-1]["values"]["kernel/now"] == 10_000

    def test_ring_wraps_keeping_newest(self, platform):
        sampler = ProbeSampler(
            platform.sim, platform.probes, period=500, capacity=4
        )
        sampler.attach()
        platform.run(10_000, stop_when_critical_done=False)
        assert sampler.frames_sampled == 20
        assert sampler.frames_dropped == 16
        frames = sampler.frames()
        assert len(frames) == 4
        assert [f["time"] for f in frames] == [8500, 9000, 9500, 10_000]
        assert sampler.last_frame()["time"] == 10_000

    def test_probe_subset_selection(self, platform):
        sampler = ProbeSampler(
            platform.sim, platform.probes, probes=["port/*/bytes"], period=500
        )
        sampler.attach()
        platform.run(2_000, stop_when_critical_done=False)
        values = sampler.last_frame()["values"]
        assert set(values) == set(sampler.names)
        assert all(name.endswith("/bytes") for name in values)

    def test_double_attach_rejected(self, platform):
        sampler = ProbeSampler(platform.sim, platform.probes, period=500)
        sampler.attach()
        with pytest.raises(ProbeError):
            sampler.attach()

    def test_detach_stops_sampling(self, platform):
        sampler = ProbeSampler(platform.sim, platform.probes, period=500)
        sampler.attach()
        platform.sim.schedule(1600, sampler.detach)
        platform.run(10_000, stop_when_critical_done=False)
        assert sampler.frames_sampled == 3

    def test_consumers_see_live_rows(self, platform):
        sampler = ProbeSampler(platform.sim, platform.probes, period=500)
        seen = []
        sampler.consumers.append(
            lambda now, names, row: seen.append((now, dict(zip(names, row))))
        )
        sampler.attach()
        platform.run(1_500, stop_when_critical_done=False)
        assert [now for now, _ in seen] == [500, 1000, 1500]
        assert seen[0][1]["kernel/now"] == 500

    def test_daemon_ticks_do_not_keep_run_alive(self):
        """A finite workload still ends the run early; the sampler's
        self-rescheduling tick must not pin the event queue."""
        platform = Platform(zcu102(num_accels=0, cpu_work=50))
        sampler = ProbeSampler(platform.sim, platform.probes, period=100)
        sampler.attach()
        elapsed = platform.run(5_000_000)
        assert elapsed < 5_000_000


@pytest.mark.parametrize("scheduler", sorted(QUEUES))
class TestBitIdentity:
    def test_recorder_sampler_leaves_results_identical(
        self, scheduler, monkeypatch, tmp_path
    ):
        """execute_spec with the probe plane active (``REPRO_SLO`` set
        --> sampler attached, a violation dumped) returns the same
        serialized summary as a bare run, on each queue."""
        use_queue(monkeypatch, scheduler)
        monkeypatch.setenv("REPRO_PROBE_PERIOD", "512")
        monkeypatch.delenv(SLO_ENV, raising=False)
        spec = RunSpec(
            config=zcu102(num_accels=2, cpu_work=300, seed=3),
            max_cycles=200_000,
        )
        bare = execute_spec(spec).to_json()
        monkeypatch.setenv(SLO_ENV, '["dram/bytes<=1"]')
        monkeypatch.setenv(FLIGHTREC_ENV, str(tmp_path))
        probed = execute_spec(spec).to_json()
        assert bare == probed
        history = tmp_path / "dump_000" / "history.json"
        assert json.loads(history.read_text()), "sampler never sampled"

    def test_direct_sampler_leaves_platform_results_identical(
        self, scheduler, monkeypatch
    ):
        use_queue(monkeypatch, scheduler)

        def run(attach):
            platform = Platform(zcu102(num_accels=1, cpu_work=200, seed=7))
            if attach:
                sampler = ProbeSampler(
                    platform.sim, platform.probes, period=256
                )
                sampler.attach()
            elapsed = platform.run(150_000)
            port = platform.port("cpu0")
            return (
                elapsed,
                port.stats.counter("bytes").value,
                port.stats.sampler("latency").summary(),
            )

        assert run(False) == run(True)
