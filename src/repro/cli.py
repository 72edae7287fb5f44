"""Command-line interface.

Small, scriptable front-ends over the experiment API::

    python -m repro interfere --hogs 4
    python -m repro regulate --kind tightly_coupled --share 0.1 --window 256
    python -m repro accuracy --share 0.2
    python -m repro resources --channels 1 2 4 8
    python -m repro bound --hogs 4
    python -m repro profile --hogs 4
    python -m repro trace --export perfetto --out trace.json
    python -m repro check lint src/
    python -m repro check sanitize --diff
    python -m repro watch zcu102 --once --json
    python -m repro watch adas --slo '["port/cam/last_latency<=500"]'

Every subcommand prints an aligned table on stdout and returns a
process exit code (0 = success), so the CLI slots into shell
pipelines and CI jobs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.bounds import CoRunnerEnvelope, worst_case_read_latency
from repro.analysis.metrics import regulation_error, slowdown
from repro.analysis.resources import ResourceModel
from repro.analysis.sweep import format_table
from repro.errors import ReproError
from repro.regulation.factory import RegulatorSpec
from repro.soc.experiment import DEFAULT_MAX_CYCLES, run_experiment
from repro.soc.presets import zcu102, zcu102_dram, zcu102_interconnect

PEAK = 16.0


def _spec_from_args(args) -> Optional[RegulatorSpec]:
    if args.kind == "none":
        return None
    if args.kind == "tightly_coupled":
        return RegulatorSpec(
            kind="tightly_coupled",
            window_cycles=args.window,
            budget_bytes=max(1, round(args.share * PEAK * args.window)),
            work_conserving=args.work_conserving,
        )
    if args.kind == "memguard":
        return RegulatorSpec(
            kind="memguard",
            period_cycles=args.period,
            budget_bytes=max(1, round(args.share * PEAK * args.period)),
            reclaim=args.reclaim,
        )
    raise ReproError(f"unhandled regulator kind {args.kind!r}")


def cmd_interfere(args) -> int:
    solo = run_experiment(zcu102(num_accels=0, cpu_work=args.work))
    base = solo.critical_runtime()
    rows = []
    for hogs in range(0, args.hogs + 1):
        result = run_experiment(zcu102(num_accels=hogs, cpu_work=args.work))
        rows.append(
            {
                "hogs": hogs,
                "runtime_cyc": result.critical_runtime(),
                "slowdown": slowdown(result.critical_runtime(), base),
                "p99_latency": result.critical().latency_p99,
                "dram_util": result.dram.utilization,
            }
        )
    print(format_table(rows, title="Interference characterization"))
    return 0


def cmd_regulate(args) -> int:
    solo = run_experiment(zcu102(num_accels=0, cpu_work=args.work))
    base = solo.critical_runtime()
    spec = _spec_from_args(args)
    result = run_experiment(
        zcu102(num_accels=args.hogs, cpu_work=args.work, accel_regulator=spec)
    )
    rows = []
    for name in sorted(result.masters):
        m = result.master(name)
        rows.append(
            {
                "master": name,
                "bandwidth_B_cyc": m.bandwidth_bytes_per_cycle,
                "p99_latency": m.latency_p99,
                "denial_episodes": m.regulator_denials,
            }
        )
    title = (
        f"Regulation: {args.kind}, {args.hogs} hogs, critical slowdown "
        f"{slowdown(result.critical_runtime(), base):.2f}x"
    )
    print(format_table(rows, title=title))
    return 0


def cmd_accuracy(args) -> int:
    configured = args.share * PEAK
    rows = []
    for kind in ("tightly_coupled", "memguard"):
        ns = argparse.Namespace(**vars(args))
        ns.kind = kind
        spec = _spec_from_args(ns)
        result = run_experiment(
            zcu102(num_accels=1, cpu_work=1, accel_regulator=spec),
            max_cycles=args.horizon,
            stop_when_critical_done=False,
        )
        achieved = result.master("acc0").bytes_moved / args.horizon
        rows.append(
            {
                "scheme": kind,
                "configured_B_cyc": configured,
                "achieved_B_cyc": achieved,
                "error_pct": 100 * regulation_error(achieved, configured),
            }
        )
    print(format_table(rows, title="Regulation accuracy"))
    return 0


def cmd_resources(args) -> int:
    model = ResourceModel()
    rows = []
    for channels in args.channels:
        est = model.estimate(channels=channels, window_cycles=args.window)
        rows.append(
            {
                "channels": channels,
                "LUTs": est.luts,
                "FFs": est.ffs,
                "LUT_pct_ZU9EG": 100 * est.lut_fraction(),
            }
        )
    print(format_table(rows, title="Regulator IP resource estimate"))
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import render_report
    from repro.soc.experiment import run_solo_baseline

    spec = _spec_from_args(args)
    config = zcu102(
        num_accels=args.hogs, cpu_work=args.work, accel_regulator=spec
    )
    result = run_experiment(config)
    solo = run_solo_baseline(config, "cpu0")
    print(
        render_report(
            result,
            title=(
                f"Scenario: {args.hogs} hogs, regulation={args.kind}, "
                f"share={args.share:.0%}"
            ),
            solo=solo,
        )
    )
    return 0


def cmd_scenario(args) -> int:
    from repro.analysis.report import render_report
    from repro.soc.experiment import run_solo_baseline
    from repro.soc.scenarios import SCENARIOS, make_scenario

    if args.list:
        rows = [
            {"scenario": s.name, "actors": len(s.actors),
             "description": s.description}
            for s in SCENARIOS.values()
        ]
        print(format_table(rows, title="Available scenarios"))
        return 0
    spec = _spec_from_args(args)
    scenario = SCENARIOS.get(args.name)
    if scenario is None:
        print(f"error: unknown scenario {args.name!r}", file=sys.stderr)
        return 2
    regulators = {}
    if spec is not None:
        regulators = {
            actor.name: spec for actor in scenario.actors if not actor.critical
        }
    config = make_scenario(args.name, regulators=regulators)
    result = run_experiment(config, max_cycles=8_000_000)
    critical = next(a.name for a in scenario.actors if a.critical)
    solo = run_solo_baseline(config, critical, max_cycles=8_000_000)
    print(
        render_report(
            result,
            title=f"Scenario {args.name!r} (regulation={args.kind})",
            solo=solo,
        )
    )
    return 0


def _experiment_config(args):
    """Resolve an ``experiment`` argument (``zcu102`` or a scenario
    name) plus the shared regulator knobs into a platform config."""
    from repro.soc.scenarios import SCENARIOS, make_scenario

    spec = _spec_from_args(args)
    if args.experiment in SCENARIOS:
        scenario = SCENARIOS[args.experiment]
        regulators = {}
        if spec is not None:
            regulators = {
                a.name: spec for a in scenario.actors if not a.critical
            }
        return make_scenario(args.experiment, regulators=regulators)
    if args.experiment == "zcu102":
        return zcu102(
            num_accels=args.hogs, cpu_work=args.work, accel_regulator=spec
        )
    raise ReproError(f"unknown experiment {args.experiment!r}")


def cmd_profile(args) -> int:
    from repro.telemetry import profile_experiment

    config = _experiment_config(args)
    result, profiler = profile_experiment(config, max_cycles=args.max_cycles)
    print(profiler.format_table(limit=args.limit))
    print(
        f"\n{result.elapsed} cycles simulated, "
        f"{profiler.events} events dispatched, "
        f"{profiler.wall_seconds:.3f}s wall"
    )
    return 0


def cmd_trace(args) -> int:
    from dataclasses import replace

    from repro.telemetry import export_platform_trace

    spec = _spec_from_args(args)
    config = zcu102(
        num_accels=args.hogs, cpu_work=args.work, accel_regulator=spec
    )
    config = replace(
        config, trace_masters=tuple(m.name for m in config.masters)
    )
    result = run_experiment(config, max_cycles=args.max_cycles)
    sink = export_platform_trace(
        result.platform, path=args.out, ring_buffer=args.ring_buffer
    )
    print(
        f"wrote {len(sink)} {args.export} events "
        f"({sink.dropped} dropped) to {args.out}"
    )
    return 0


def cmd_check(args) -> int:
    if args.check_command == "lint":
        from repro.checks.lint import format_rule_catalogue, run_lint

        if args.list_rules:
            print(format_rule_catalogue())
            return 0
        return run_lint(
            args.paths or ["src"],
            baseline_path=args.baseline,
            fmt=args.format,
            update_baseline=args.write_baseline,
        )
    if args.check_command == "deep":
        from repro.checks.deep import run_deep_cli

        return run_deep_cli(
            args.paths or ["src"],
            baseline_path=args.baseline,
            fmt=args.format,
            update_baseline=args.write_baseline,
        )
    if args.check_command == "sanitize":
        return _cmd_check_sanitize(args)
    raise ReproError(f"unhandled check subcommand {args.check_command!r}")


def _cmd_check_sanitize(args) -> int:
    import io
    import os
    from contextlib import redirect_stdout

    from repro.checks.sanitize import SANITIZE_ENV

    def render() -> str:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            cmd_regulate(args)
        return buffer.getvalue()

    # The CLI *sets* the sanitizer knob for the child runs and must
    # restore whatever the caller had.  # repro: allow[DET003]
    previous = os.environ.get(SANITIZE_ENV)
    try:
        os.environ[SANITIZE_ENV] = "1"
        sanitized = render()
        if not args.diff:
            print(sanitized, end="")
            print("sanitizer: no invariant violations")
            return 0
        os.environ.pop(SANITIZE_ENV, None)
        plain = render()
    finally:
        if previous is None:
            os.environ.pop(SANITIZE_ENV, None)
        else:
            os.environ[SANITIZE_ENV] = previous
    print(sanitized, end="")
    if sanitized != plain:
        print("sanitizer DIFF: sanitized run diverged from the plain run")
        return 1
    print("sanitizer: no invariant violations; outputs byte-identical")
    return 0


def cmd_watch(args) -> int:
    """Run an experiment locally with a sampler attached and render
    its frames (one table or JSON line per sample)."""
    import json

    from repro.probes import FlightRecorder, ProbeSampler, WatchView
    from repro.soc.platform import Platform

    config = _experiment_config(args)
    platform = Platform(config)
    sampler = ProbeSampler(
        platform.sim,
        platform.probes,
        probes=args.probes,
        period=args.sample_period,
    )
    recorder = FlightRecorder.from_env(slo=args.slo, out_dir=args.flightrec)
    if recorder is not None:
        recorder.context.setdefault("experiment", args.experiment)
        recorder.arm(sampler)

    view = WatchView()
    printed = 0
    limit = args.max_frames if not args.once else None

    def emit(now, names, row) -> None:
        nonlocal printed
        values = dict(zip(names, row))
        if args.json:
            print(json.dumps({"event": "frame", "time": now, "values": values}))
        else:
            print(view.render({"time": now, "values": values}))
        printed += 1
        if limit is not None and printed >= limit:
            platform.sim.request_stop()

    if not args.once:
        sampler.consumers.append(emit)
    sampler.attach()
    elapsed = platform.run(args.max_cycles)
    if args.once:
        frame = sampler.last_frame()
        if frame is None:
            print(
                f"error: run ended at cycle {elapsed} before the first "
                f"sample (period {sampler.period}); lower --sample-period",
                file=sys.stderr,
            )
            return 1
        if args.json:
            print(json.dumps({"event": "frame", **frame}))
        else:
            print(view.render(frame))
    if recorder is not None and recorder.dump_dirs:
        for path in recorder.dump_dirs:
            print(f"flight recorder: dumped {path}")
    return 0


def cmd_bound(args) -> int:
    dram = zcu102_dram()
    bound = worst_case_read_latency(
        timing=dram.timing,
        interconnect=zcu102_interconnect(),
        co_runners=[
            CoRunnerEnvelope(max_outstanding=8, burst_beats=16)
            for _ in range(args.hogs)
        ],
        critical_burst_beats=4,
        frfcfs_cap=dram.frfcfs_cap,
        own_outstanding=2,
    )
    result = run_experiment(zcu102(num_accels=args.hogs, cpu_work=args.work))
    rows = [
        {
            "hogs": args.hogs,
            "analytic_bound_cyc": bound,
            "measured_max_cyc": result.critical().latency_max,
            "measured_p99_cyc": result.critical().latency_p99,
            "bound_headroom": bound / max(1.0, result.critical().latency_max),
        }
    ]
    print(format_table(rows, title="Worst-case latency bound vs measurement"))
    return 0 if bound >= result.critical().latency_max else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cycle-level reproduction of 'Fine-Grained QoS Control via "
            "Tightly-Coupled Bandwidth Monitoring and Regulation for "
            "FPGA-based Heterogeneous SoCs' (DAC 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("interfere", help="unregulated interference sweep")
    p.add_argument("--hogs", type=int, default=4)
    p.add_argument("--work", type=int, default=3000)
    p.set_defaults(fn=cmd_interfere)

    p = sub.add_parser("regulate", help="run one regulated scenario")
    p.add_argument("--kind", default="tightly_coupled",
                   choices=["none", "tightly_coupled", "memguard"])
    p.add_argument("--share", type=float, default=0.1,
                   help="per-hog share of channel peak")
    p.add_argument("--window", type=int, default=256)
    p.add_argument("--period", type=int, default=100_000)
    p.add_argument("--hogs", type=int, default=4)
    p.add_argument("--work", type=int, default=3000)
    p.add_argument("--work-conserving", action="store_true")
    p.add_argument("--reclaim", action="store_true")
    p.set_defaults(fn=cmd_regulate)

    p = sub.add_parser("accuracy", help="configured vs achieved bandwidth")
    p.add_argument("--share", type=float, default=0.1)
    p.add_argument("--window", type=int, default=1024)
    p.add_argument("--period", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=400_000)
    p.add_argument("--work-conserving", action="store_true")
    p.add_argument("--reclaim", action="store_true")
    p.set_defaults(fn=cmd_accuracy)

    p = sub.add_parser("resources", help="IP footprint estimate")
    p.add_argument("--channels", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--window", type=int, default=1024)
    p.set_defaults(fn=cmd_resources)

    p = sub.add_parser("bound", help="analytic worst-case latency bound")
    p.add_argument("--hogs", type=int, default=4)
    p.add_argument("--work", type=int, default=3000)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("scenario", help="run a named application scenario")
    p.add_argument("name", nargs="?", default="adas")
    p.add_argument("--list", action="store_true",
                   help="list available scenarios and exit")
    p.add_argument("--kind", default="tightly_coupled",
                   choices=["none", "tightly_coupled", "memguard"])
    p.add_argument("--share", type=float, default=0.1)
    p.add_argument("--window", type=int, default=256)
    p.add_argument("--period", type=int, default=100_000)
    p.add_argument("--work-conserving", action="store_true")
    p.add_argument("--reclaim", action="store_true")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser(
        "profile", help="per-component time/event profile of one run"
    )
    p.add_argument("experiment", nargs="?", default="zcu102",
                   help="'zcu102' or a scenario name (adas, ...)")
    p.add_argument("--kind", default="tightly_coupled",
                   choices=["none", "tightly_coupled", "memguard"])
    p.add_argument("--share", type=float, default=0.1)
    p.add_argument("--window", type=int, default=256)
    p.add_argument("--period", type=int, default=100_000)
    p.add_argument("--hogs", type=int, default=4)
    p.add_argument("--work", type=int, default=3000)
    p.add_argument("--max-cycles", type=int, default=None)
    p.add_argument("--limit", type=int, default=None,
                   help="show only the top N handlers")
    p.add_argument("--work-conserving", action="store_true")
    p.add_argument("--reclaim", action="store_true")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "trace", help="export a transaction-level trace of one run"
    )
    p.add_argument("--export", default="perfetto", choices=["perfetto"],
                   help="trace format (Chrome trace-event JSON)")
    p.add_argument("--out", default="trace.json")
    p.add_argument("--ring-buffer", type=int, default=None,
                   help="keep only the most recent N slices")
    p.add_argument("--kind", default="tightly_coupled",
                   choices=["none", "tightly_coupled", "memguard"])
    p.add_argument("--share", type=float, default=0.1)
    p.add_argument("--window", type=int, default=256)
    p.add_argument("--period", type=int, default=100_000)
    p.add_argument("--hogs", type=int, default=2)
    p.add_argument("--work", type=int, default=1000)
    p.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    p.add_argument("--work-conserving", action="store_true")
    p.add_argument("--reclaim", action="store_true")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser(
        "check", help="correctness tooling (invariant lint, kernel sanitizer)"
    )
    check_sub = p.add_subparsers(dest="check_command", required=True)

    c = check_sub.add_parser(
        "lint", help="AST lint: determinism, hot-path, telemetry rules"
    )
    c.add_argument("paths", nargs="*", help="files/directories (default: src)")
    c.add_argument("--format", default="human", choices=["human", "json"])
    c.add_argument("--baseline", default=None,
                   help="baseline file (default .repro-lint-baseline.json)")
    c.add_argument("--write-baseline", action="store_true",
                   help="record current findings as the new baseline")
    c.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    c.set_defaults(fn=cmd_check)

    c = check_sub.add_parser(
        "deep",
        help="whole-program analysis: hot-set propagation",
    )
    c.add_argument("paths", nargs="*", help="files/directories (default: src)")
    c.add_argument("--format", default="human",
                   choices=["human", "json", "sarif"])
    c.add_argument("--baseline", default=None,
                   help="baseline file (default .repro-deep-baseline.json)")
    c.add_argument("--write-baseline", action="store_true",
                   help="record current findings as the new baseline")
    c.set_defaults(fn=cmd_check)

    c = check_sub.add_parser(
        "sanitize",
        help="run one regulated scenario under the kernel sanitizer",
    )
    c.add_argument("--diff", action="store_true",
                   help="also run unsanitized and require identical output")
    c.add_argument("--kind", default="tightly_coupled",
                   choices=["none", "tightly_coupled", "memguard"])
    c.add_argument("--share", type=float, default=0.1)
    c.add_argument("--window", type=int, default=256)
    c.add_argument("--period", type=int, default=100_000)
    c.add_argument("--hogs", type=int, default=2)
    c.add_argument("--work", type=int, default=1000)
    c.add_argument("--work-conserving", action="store_true")
    c.add_argument("--reclaim", action="store_true")
    c.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "watch",
        help="live probe view: per-master bandwidth, throttle duty, "
             "budget headroom",
    )
    p.add_argument("experiment", nargs="?", default="zcu102",
                   help="'zcu102' or a scenario name")
    p.add_argument("--probes", nargs="+", default=None, metavar="GLOB",
                   help="probe-name glob patterns (default: all probes)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit")
    p.add_argument("--json", action="store_true",
                   help="newline-JSON frames instead of tables")
    p.add_argument("--max-frames", type=int, default=None,
                   help="stop after N frames")
    p.add_argument("--sample-period", type=int, default=None,
                   help="sampling period in cycles (default: "
                        "REPRO_PROBE_PERIOD or 4096)")
    p.add_argument("--max-cycles", type=int, default=DEFAULT_MAX_CYCLES)
    p.add_argument("--slo", default=None,
                   help="SLO rules arming a flight recorder: inline JSON "
                        "list or a file path (default: REPRO_SLO)")
    p.add_argument("--flightrec", default=None,
                   help="flight-recorder dump root (default: "
                        "REPRO_FLIGHTREC or results/flightrec)")
    p.add_argument("--kind", default="tightly_coupled",
                   choices=["none", "tightly_coupled", "memguard"])
    p.add_argument("--share", type=float, default=0.1)
    p.add_argument("--window", type=int, default=256)
    p.add_argument("--period", type=int, default=100_000)
    p.add_argument("--hogs", type=int, default=4)
    p.add_argument("--work", type=int, default=3000)
    p.add_argument("--work-conserving", action="store_true")
    p.add_argument("--reclaim", action="store_true")
    p.set_defaults(fn=cmd_watch)

    p = sub.add_parser("report", help="full scenario report")
    p.add_argument("--kind", default="tightly_coupled",
                   choices=["none", "tightly_coupled", "memguard"])
    p.add_argument("--share", type=float, default=0.1)
    p.add_argument("--window", type=int, default=256)
    p.add_argument("--period", type=int, default=100_000)
    p.add_argument("--hogs", type=int, default=4)
    p.add_argument("--work", type=int, default=3000)
    p.add_argument("--work-conserving", action="store_true")
    p.add_argument("--reclaim", action="store_true")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
