"""End-to-end checks: every component count is readable as one probe."""

import dataclasses
import os
import re

import pytest

from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import run_experiment
from repro.soc.platform import Platform
from repro.soc.presets import zcu102

DOCS = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "observability.md"
)


@pytest.fixture(scope="module")
def regulated_run():
    """One small regulated run and its end-of-run probe snapshot."""
    spec = RegulatorSpec(
        kind="tightly_coupled", window_cycles=256, budget_bytes=2048
    )
    result = run_experiment(
        zcu102(num_accels=2, cpu_work=2000, accel_regulator=spec)
    )
    return result, result.platform.probes.snapshot()


@pytest.fixture(scope="module")
def mixed_platform():
    """A zcu102 platform with TC, MemGuard and TDMA masters, run."""
    config = zcu102(num_accels=3, cpu_work=1000)
    specs = {
        "acc0": RegulatorSpec(
            kind="tightly_coupled", window_cycles=256, budget_bytes=1024
        ),
        "acc1": RegulatorSpec(
            kind="memguard", period_cycles=5_000, budget_bytes=8_000,
            interrupt_latency=100,
        ),
        "acc2": RegulatorSpec(kind="tdma", window_cycles=512, tdma_slots=4),
    }
    masters = tuple(
        dataclasses.replace(m, regulator=specs.get(m.name, m.regulator))
        for m in config.masters
    )
    platform = Platform(dataclasses.replace(config, masters=masters))
    platform.run(100_000)
    return platform


class TestAxiMetrics:
    def test_txn_lifecycle_counts_consistent(self, regulated_run):
        _, snap = regulated_run
        for master in ("cpu0", "acc0", "acc1"):
            submitted = snap[f"port/{master}/submitted"]
            accepted = snap[f"port/{master}/accepted"]
            completed = snap[f"port/{master}/completed"]
            assert submitted >= accepted >= completed > 0

    def test_interconnect_counters(self, regulated_run):
        _, snap = regulated_run
        assert snap["interconnect/arb_passes"] > 0
        assert snap["interconnect/accepted"] == sum(
            snap[f"port/{m}/accepted"] for m in ("cpu0", "acc0", "acc1")
        )


class TestDramMetrics:
    def test_row_access_kinds(self, regulated_run):
        _, snap = regulated_run
        total = sum(
            snap[f"dram/row_{kind}"] for kind in ("hit", "miss", "conflict")
        )
        assert total == snap["dram/serviced"]
        assert snap["dram/bytes"] > 0


class TestRegulatorMetrics:
    def test_grants_match_monitor_totals(self, regulated_run):
        result, snap = regulated_run
        reg = result.platform.regulators["acc0"]
        assert snap["reg/acc0/charged_transactions"] == reg.charged_transactions
        assert snap["reg/acc0/charged_bytes"] == reg.charged_bytes

    def test_window_resets_reported(self, regulated_run):
        _, snap = regulated_run
        assert snap["reg/acc0/window_resets"] > 0

    def test_budget_gauge(self, regulated_run):
        _, snap = regulated_run
        assert snap["reg/acc0/budget_bytes"] == 2048

    def test_throttle_log_intervals_closed(self, regulated_run):
        result, _ = regulated_run
        port = result.platform.ports["acc0"]
        assert port.throttle_log, "tight budget should cause denials"
        for start, end in port.throttle_log:
            assert end > start


class TestKernelStats:
    def test_kernel_stats_always_available(self, regulated_run):
        result, _ = regulated_run
        stats = result.platform.sim.kernel_stats()
        assert stats["events_dispatched"] > 0
        assert stats["events_scheduled"] > 0
        # Nothing is cancelled: every scheduled event was dispatched
        # or is still pending.
        assert (
            stats["events_dispatched"] + stats["pending"]
            == stats["events_scheduled"]
        )


class TestOneCounterPlane:
    def test_every_counter_is_exactly_one_probe(self, mixed_platform):
        platform = mixed_platform
        probes = platform.probes
        sources = [("dram", platform.dram.stats),
                   ("interconnect", platform.interconnect.stats)]
        sources += [(f"port/{name}", port.stats)
                    for name, port in platform.ports.items()]
        for prefix, stats in sources:
            counters = stats.counters()
            assert counters, prefix
            for name, counter in counters.items():
                matches = [p for p in probes if p.name == f"{prefix}/{name}"]
                assert len(matches) == 1, f"{prefix}/{name}"
                assert matches[0].read() == counter.value
        # The run exercised what the probes expose.
        assert probes.read("reg/acc0/window_resets") > 0
        assert probes.read("reg/acc1/window_resets") > 0
        assert probes.read("reg/acc1/interrupt_count") > 0
        assert probes.read("port/acc0/regulator_denials") > 0

    def test_documented_probes_resolve(self, mixed_platform):
        with open(DOCS, encoding="utf-8") as fh:
            text = fh.read()
        table = text.split("| probe | unit | meaning |", 1)[1]
        table = table.split("\n\n", 1)[0]
        rows = [line for line in table.splitlines() if line.startswith("| `")]
        names = [
            name for row in rows
            for name in re.findall(r"`([^`]+)`", row.split("|")[1])
        ]
        assert len(names) > 20
        probes = mixed_platform.probes
        masters = list(mixed_platform.ports)
        for name in names:
            candidates = (
                [name.replace("<m>", m) for m in masters]
                if "<m>" in name else [name]
            )
            assert any(c in probes for c in candidates), name
