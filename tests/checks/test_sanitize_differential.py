"""Sanitized runs must be byte-identical to plain runs.

The sanitizer is a pure observer: same experiment and same seed must
serialize to exactly the same summary with ``REPRO_SANITIZE`` on or
off.
"""

from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import run_experiment
from repro.soc.presets import zcu102


def summary_json(monkeypatch, sanitize):
    if sanitize:
        monkeypatch.setenv("REPRO_SANITIZE", "1")
    else:
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    spec = RegulatorSpec(
        kind="tightly_coupled", window_cycles=256, budget_bytes=410
    )
    config = zcu102(num_accels=2, cpu_work=400, accel_regulator=spec)
    return run_experiment(config).summary().to_json()


def test_sanitized_run_byte_identical(monkeypatch):
    plain = summary_json(monkeypatch, sanitize=False)
    sanitized = summary_json(monkeypatch, sanitize=True)
    assert sanitized == plain
