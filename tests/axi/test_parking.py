"""Parked denied heads change nothing but the denial count.

Each reduced paper configuration runs twice: as shipped, where a
denied head parks until the regulator's ``denied_until``, and with
every ``denied_until`` patched to return ``now``, where the port asks
the regulator again on every arbitration pass.  Every
``PlatformResult`` field must match except ``regulator_denials``,
which counts denial episodes.  Arbitration passes, dispatched events
and throttle intervals must match too: parking skips regulator calls,
never kicks.
"""

import dataclasses

import pytest

from repro.axi.interconnect import Interconnect
from repro.regulation.base import BandwidthRegulator
from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import DEFAULT_MAX_CYCLES, PlatformResult
from repro.soc.platform import Platform
from repro.soc.presets import zcu102

from benchmarks.common import loaded_config, memguard_spec, tc_spec


def _e2(regulator):
    return zcu102(num_cpus=1, num_accels=1, cpu_work=1, accel_regulator=regulator)


def _loaded(regulator):
    return loaded_config(num_accels=2, cpu_work=300, accel_regulator=regulator)


#: label -> (config, open-loop horizon or None for run-until-critical).
CONFIGS = {
    "e2_tc": (_e2(tc_spec(0.10)), 60_000),
    "e2_memguard": (_e2(memguard_spec(0.10, period_cycles=8_000)), 40_000),
    "e3_fine": (_loaded(tc_spec(0.10, window_cycles=64)), None),
    "e3_not_burst_aware": (
        _loaded(tc_spec(0.10, window_cycles=256, burst_aware=False)), None
    ),
    "e8_feedback_delay": (
        _loaded(tc_spec(0.10, window_cycles=1024, feedback_delay=256)), None
    ),
    "e9_work_conserving": (
        _loaded(tc_spec(0.10, window_cycles=256, work_conserving=True)), None
    ),
    "e15_tdma": (
        _loaded(RegulatorSpec(kind="tdma", window_cycles=512, tdma_slots=8)),
        None,
    ),
    "e16_prem": (
        _loaded(RegulatorSpec(kind="prem", prem_hold_cycles=1024)), None
    ),
}


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _unpark(monkeypatch):
    """Make every regulator promise nothing: re-ask on every pass."""
    for cls in list(_subclasses(BandwidthRegulator)):
        if "denied_until" in vars(cls):
            monkeypatch.setattr(cls, "denied_until", lambda self, txn, now: now)


def _run(config, horizon, monkeypatch):
    passes = []
    arbitrate = Interconnect._arbitrate

    def counting(self):
        passes.append(self.sim.now)
        arbitrate(self)

    monkeypatch.setattr(Interconnect, "_arbitrate", counting)
    platform = Platform(config)
    if horizon is None:
        elapsed = platform.run(DEFAULT_MAX_CYCLES)
    else:
        elapsed = platform.run(horizon, stop_when_critical_done=False)
    result = PlatformResult(platform, elapsed)
    monkeypatch.setattr(Interconnect, "_arbitrate", arbitrate)
    denials = {n: m.regulator_denials for n, m in result.masters.items()}
    observed = {
        "elapsed": result.elapsed,
        "masters": {
            n: dataclasses.replace(m, regulator_denials=0)
            for n, m in result.masters.items()
        },
        "dram": result.dram,
        "passes": passes,
        "events": platform.sim.events_dispatched,
        "throttle": {
            n: port.throttle_intervals() for n, port in platform.ports.items()
        },
    }
    return observed, denials


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_parking_changes_only_the_denial_count(label, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    config, horizon = CONFIGS[label]
    parked, parked_denials = _run(config, horizon, monkeypatch)
    with monkeypatch.context() as patch:
        _unpark(patch)
        unparked, unparked_denials = _run(config, horizon, patch)
    assert parked == unparked
    for name, count in parked_denials.items():
        assert count <= unparked_denials[name]


@pytest.mark.parametrize("label", ["e3_fine", "e2_tc"])
def test_parking_engages_on_tightly_coupled(label, monkeypatch):
    """A denied tightly-coupled head is asked once per episode, so the
    count strictly drops -- proof the differential above is not
    vacuous."""
    config, horizon = CONFIGS[label]
    _, parked = _run(config, horizon, monkeypatch)
    with monkeypatch.context() as patch:
        _unpark(patch)
        _, unparked = _run(config, horizon, patch)
    assert sum(parked.values()) > 0
    assert sum(parked.values()) < sum(unparked.values())
