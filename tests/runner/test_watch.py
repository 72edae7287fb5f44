"""Live probe streaming through ``repro serve``: the ``watch`` and
``probe_list`` ops, the synchronous client, and the frame renderer.

The server executes runs in-process (``max_workers=1``) so the
process-global publisher installed at server start sees the sampler's
frames and fans them out to subscribers over the real Unix socket.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.probes.watch import WatchView, iter_watch, probe_list
from repro.runner import ParallelRunner, RunSpec
from repro.runner.serve import BatchServer, request_runs
from repro.soc.presets import zcu102

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="requires Unix sockets"
)


def watch_spec(seed=1):
    # Long enough (hogs + real work) that a 256-cycle sampling period
    # yields plenty of frames while the run is in flight.
    return RunSpec(
        config=zcu102(num_accels=2, cpu_work=400, seed=seed),
        max_cycles=400_000,
    )


class ServerHarness:
    """A BatchServer running on its own thread + event loop."""

    def __init__(self, runner, socket_path, **kwargs):
        self.server = BatchServer(runner, socket_path=socket_path, **kwargs)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def main():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=main, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop
        ).result(timeout=10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture
def served(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PROBE_PERIOD", "256")
    monkeypatch.delenv("REPRO_SLO", raising=False)
    sock = str(tmp_path / "w.sock")
    runner = ParallelRunner(max_workers=1)
    harness = ServerHarness(runner, sock)
    try:
        yield sock, harness.server
    finally:
        harness.stop()
        runner.close()


def subscribe(sock, server, out, **kwargs):
    """Collect watch messages on a background thread.

    Returns once the server has registered the subscription, so a run
    requested next cannot start (or finish) before the watcher is in.
    """
    registered = server.stats.watches + 1

    def main():
        for message in iter_watch(sock, timeout=60, **kwargs):
            out.append(message)

    thread = threading.Thread(target=main)
    thread.start()
    deadline = time.monotonic() + 30
    while server.stats.watches < registered and time.monotonic() < deadline:
        time.sleep(0.005)
    return thread


class TestWatchOp:
    def test_streams_frames_from_inflight_run(self, served):
        sock, server = served
        messages = []
        watcher = subscribe(sock, server, messages, max_frames=3)
        request_runs(sock, [watch_spec(seed=11)], timeout=120)
        watcher.join(timeout=60)
        assert not watcher.is_alive()
        frames = [m for m in messages if m.get("event") == "frame"]
        metas = [m for m in messages if m.get("event") == "meta"]
        assert len(frames) == 3
        assert metas and any(
            p["name"] == "kernel/now" for p in metas[-1]["probes"]
        )
        assert frames[0]["time"] >= 256
        assert "port/cpu0/bytes" in frames[0]["values"]
        assert server.stats.watches == 1
        assert server.stats.frames >= 3

    def test_probe_filter_restricts_values(self, served):
        sock, server = served
        messages = []
        watcher = subscribe(
            sock, server, messages, probes=["port/*/bytes"], max_frames=2
        )
        request_runs(sock, [watch_spec(seed=12)], timeout=120)
        watcher.join(timeout=60)
        frames = [m for m in messages if m.get("event") == "frame"]
        assert frames
        for frame in frames:
            assert frame["values"]
            assert all(n.endswith("/bytes") for n in frame["values"])

    def test_unbounded_watch_ends_with_the_run(self, served):
        sock, server = served
        messages = []
        watcher = subscribe(sock, server, messages, max_frames=None)
        request_runs(sock, [watch_spec(seed=13)], timeout=120)
        watcher.join(timeout=60)
        assert not watcher.is_alive(), "watch must end on the run's end event"
        assert messages[-1].get("event") == "end"
        assert any(m.get("event") == "frame" for m in messages)

    def test_probe_list_reflects_last_run(self, served):
        sock, server = served
        assert probe_list(sock) == []
        messages = []
        watcher = subscribe(sock, server, messages, max_frames=1)
        request_runs(sock, [watch_spec(seed=14)], timeout=120)
        watcher.join(timeout=60)
        listed = probe_list(sock)
        names = {p["name"] for p in listed}
        assert "kernel/now" in names
        assert "port/acc0/bytes" in names

    def test_bad_watch_arguments_are_error_lines(self, served):
        sock, _server = served
        for line in (
            '{"op": "watch", "max_frames": 0}',
            '{"op": "watch", "max_frames": "soon"}',
            '{"op": "watch", "probes": "not-a-list"}',
        ):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(10)
                raw.connect(sock)
                raw.sendall(line.encode() + b"\n")
                with raw.makefile("r", encoding="utf-8") as stream:
                    reply = json.loads(stream.readline())
            assert "error" in reply


class TestWatchView:
    def _frame(self, time, nbytes, throttled, tokens):
        return {
            "time": time,
            "values": {
                "port/acc0/bytes": nbytes,
                "port/acc0/throttle_cycles": throttled,
                "port/acc0/last_latency": 40,
                "port/acc0/outstanding": 2,
                "reg/acc0/tokens": tokens,
                "reg/acc0/budget_bytes": 512,
                "kernel/now": time,
            },
        }

    def test_rates_are_deltas_between_frames(self):
        view = WatchView()
        view.render(self._frame(1000, 4000, 100, 256))
        table = view.render(self._frame(2000, 8000, 350, 128))
        assert "acc0" in table
        assert "cycle 2000" in table
        # (8000-4000)/1000 bytes/cycle and (350-100)/1000 duty.
        assert "4" in table
        assert "0.25" in table

    def test_headroom_is_tokens_over_budget(self):
        view = WatchView()
        table = view.render(self._frame(1000, 0, 0, 256))
        assert "headroom" in table
        assert "0.5" in table

    def test_frame_without_master_probes(self):
        view = WatchView()
        out = view.render({"time": 5, "values": {"kernel/now": 5}})
        assert "no per-master probes" in out


class TestCli:
    def test_watch_parser_accepts_the_documented_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "watch",
                "--socket", "w.sock",
                "--probes", "port/*/bytes", "reg/*",
                "--once",
                "--json",
                "--max-frames", "5",
                "--timeout", "3.5",
                "--sample-period", "512",
                "--slo", '["dram/bytes<=1"]',
                "--flightrec", "out",
            ]
        )
        assert args.fn is not None
        assert args.socket == "w.sock"
        assert args.probes == ["port/*/bytes", "reg/*"]
        assert args.once and args.json
        assert args.max_frames == 5
        assert args.sample_period == 512

    def test_watch_local_once_json(self, capsys, monkeypatch, tmp_path):
        """Local mode: run a small experiment, print one JSON frame."""
        import os

        from repro.cli import main

        monkeypatch.delenv("REPRO_SLO", raising=False)
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "watch", "zcu102",
                "--hogs", "1", "--work", "200",
                "--sample-period", "256",
                "--once", "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        frame = json.loads(out[-1])
        assert frame["event"] == "frame"
        assert "port/cpu0/bytes" in frame["values"]
        assert not os.path.exists(str(tmp_path / "results"))

    def test_watch_local_slo_dumps_flightrec(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "watch", "zcu102",
                "--hogs", "2", "--work", "300",
                "--sample-period", "256",
                "--once", "--json",
                "--slo", '["dram/bytes<=1"]',
                "--flightrec", str(tmp_path / "rec"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert (tmp_path / "rec" / "dump_000" / "history.json").is_file()
        assert "flight recorder: dumped" in captured.out
