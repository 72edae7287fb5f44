"""``repro watch``: live probe frames from an in-process run, the
terminal frame renderer, and the flight-recorder wiring of the CLI.
"""

import json
import os

import pytest

from repro.cli import main
from repro.probes.watch import WatchView


@pytest.fixture
def clean_env(monkeypatch, tmp_path):
    """No SLO/flight-recorder knobs from the caller; cwd is a temp dir."""
    monkeypatch.delenv("REPRO_SLO", raising=False)
    monkeypatch.delenv("REPRO_FLIGHTREC", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def watch_frames(capsys, *extra):
    """Run ``repro watch`` on a small regulated run; return JSON frames."""
    code = main(
        [
            "watch", "zcu102",
            "--hogs", "2", "--work", "400",
            "--sample-period", "256",
            "--json",
            *extra,
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return [json.loads(line) for line in lines if line.startswith("{")]


class TestWatchOp:
    def test_streams_frames_from_inflight_run(self, capsys, clean_env):
        frames = watch_frames(capsys, "--max-frames", "3")
        assert len(frames) == 3
        assert all(f["event"] == "frame" for f in frames)
        assert frames[0]["time"] >= 256
        assert [f["time"] for f in frames] == sorted(f["time"] for f in frames)
        assert "port/cpu0/bytes" in frames[0]["values"]
        assert "kernel/now" in frames[0]["values"]

    def test_probe_filter_restricts_values(self, capsys, clean_env):
        frames = watch_frames(
            capsys, "--probes", "port/*/bytes", "--max-frames", "2"
        )
        assert frames
        for frame in frames:
            assert frame["values"]
            assert all(n.endswith("/bytes") for n in frame["values"])

    def test_unbounded_watch_ends_with_the_run(self, capsys, clean_env):
        frames = watch_frames(capsys)
        assert len(frames) > 3
        assert not os.path.exists("results")


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
                "watch", "adas",
                "--probes", "port/*/bytes", "reg/*",
                "--once",
                "--json",
                "--max-frames", "5",
                "--sample-period", "512",
                "--slo", '["dram/bytes<=1"]',
                "--flightrec", "out",
            ]
        )
        assert args.fn is not None
        assert args.experiment == "adas"
        assert args.probes == ["port/*/bytes", "reg/*"]
        assert args.once and args.json
        assert args.max_frames == 5
        assert args.sample_period == 512

    def test_watch_local_once_json(self, capsys, monkeypatch, tmp_path):
        """Run a small experiment, print one JSON frame."""
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

    def test_flightrec_flag_applies_to_env_slo(
        self, capsys, monkeypatch, clean_env
    ):
        """``REPRO_SLO`` supplies the rules, ``--flightrec`` the dump dir."""
        monkeypatch.setenv("REPRO_SLO", '["dram/bytes<=1"]')
        watch_frames(capsys, "--once", "--flightrec", "rec")
        assert (clean_env / "rec" / "dump_000" / "history.json").is_file()
        assert not (clean_env / "results").exists()

    def test_env_flightrec_applies_to_slo_flag(
        self, capsys, monkeypatch, clean_env
    ):
        """``--slo`` supplies the rules, ``REPRO_FLIGHTREC`` the dump dir."""
        monkeypatch.setenv("REPRO_FLIGHTREC", "envrec")
        watch_frames(capsys, "--once", "--slo", '["dram/bytes<=1"]')
        assert (clean_env / "envrec" / "dump_000" / "history.json").is_file()
        assert not (clean_env / "results").exists()
