#!/usr/bin/env python
"""End-to-end smoke for the live probe plane, as CI runs it.

Drives the real CLI as a subprocess, exactly as a user would::

    python -m repro watch zcu102 --once --json \\
        --slo '["dram/bytes<=1"]' --flightrec DIR

and asserts that it printed one live probe frame as JSON and that the
violated SLO (total DRAM traffic exceeds one byte on the first sampled
frame) left a flight-recorder dump with pre-violation history in DIR.

Usage::

    PYTHONPATH=src python scripts/watch_smoke.py [--flightrec DIR]

Exit code 0 = frame printed and dump present.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))

#: A run long enough that the sampler sees in-flight frames.
HOGS = 2
CPU_WORK = 400
SAMPLE_PERIOD = 256


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--flightrec",
        default=None,
        help="flight-recorder output dir (default: a temp dir)",
    )
    args = parser.parse_args(argv)
    flightrec = args.flightrec or os.path.join(
        tempfile.mkdtemp(prefix="watch_smoke_"), "flightrec"
    )

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_HERE, "..", "src")
    env.pop("REPRO_SLO", None)
    env.pop("REPRO_FLIGHTREC", None)
    watch = subprocess.run(
        [
            sys.executable, "-m", "repro", "watch", "zcu102",
            "--hogs", str(HOGS),
            "--work", str(CPU_WORK),
            "--sample-period", str(SAMPLE_PERIOD),
            "--once", "--json",
            "--slo", '["dram/bytes<=1"]',
            "--flightrec", flightrec,
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert watch.returncode == 0, f"watch exited {watch.returncode}"
    frames = [
        json.loads(line)
        for line in watch.stdout.splitlines()
        if line.startswith("{")
    ]
    assert len(frames) == 1, f"expected one JSON frame, got {len(frames)}"
    frame = frames[0]
    assert frame["event"] == "frame", frame
    assert any(name.startswith("port/") for name in frame["values"])
    print(
        f"watch_smoke: frame at cycle {frame['time']} with "
        f"{len(frame['values'])} probe values"
    )

    dump = os.path.join(flightrec, "dump_000")
    for name in ("violation.json", "history.json", "trace.json"):
        path = os.path.join(dump, name)
        assert os.path.isfile(path), f"missing {path}"
    with open(os.path.join(dump, "history.json")) as fh:
        history = json.load(fh)
    assert history, "dump must retain pre-violation history"
    print(
        f"watch_smoke: flight recorder dumped {len(history)} "
        f"frames to {dump}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
