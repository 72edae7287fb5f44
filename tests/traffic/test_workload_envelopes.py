"""Envelope checks for the extended workload library.

Each workload claims a memory-behaviour envelope in its docstring;
these tests verify the claims hold in simulation (locality, MLP,
read/write mix), so the library stays honest as models evolve.
"""

from repro.sim.kernel import Simulator
from repro.traffic.workloads import make_workload
from tests.conftest import MiniSystem


def run_workload(name, work, seed=3):
    sim = Simulator()
    from repro.dram.controller import DramConfig
    from repro.dram.timing import DramTiming

    mini = MiniSystem(
        sim, dram_config=DramConfig(timing=DramTiming(), refresh_enabled=False)
    )
    port = mini.add_port(name)
    master = make_workload(
        name, sim, port, base=0x100000, extent=1 << 20, seed=seed, work=work
    )
    master.start()
    sim.run(until=4_000_000)
    return sim, mini, port, master


class TestNewWorkloadEnvelopes:
    def test_video_scale_mixes_reads_and_writes(self):
        _sim, mini, port, master = run_workload("video_scale", 64 * 1024)
        assert master.done
        # 50% writes -> the DRAM saw both directions (turnarounds).
        assert mini.dram.stats.counter("turnarounds").value > 0

    def test_video_scale_strided_locality(self):
        _sim, mini, _port, _master = run_workload("video_scale", 64 * 1024)
        stride_hit_rate = mini.dram.row_hit_rate()
        _sim2, mini2, _p2, _m2 = run_workload("stream_read", 64 * 1024)
        seq_hit_rate = mini2.dram.row_hit_rate()
        assert stride_hit_rate < seq_hit_rate

    def test_hash_join_random_locality(self):
        _sim, mini, _port, master = run_workload("hash_join", 1_000)
        assert master.done
        # Random 64 B probes over 1 MiB: row hits are rare.
        assert mini.dram.row_hit_rate() < 0.4

    def test_spmv_high_mlp_faster_than_pointer_chase(self):
        _sim, _mini, _port, spmv = run_workload("spmv", 1_000)
        _sim2, _mini2, _port2, chase = run_workload("pointer_chase", 1_000)
        assert spmv.done and chase.done
        # Same access count, same random locality: MLP=6 overlaps
        # misses that MLP=1 serializes (bank conflicts on the random
        # stream cap the overlap well short of 6x).
        assert spmv.finished_at < chase.finished_at * 0.8

    def test_seeds_differentiate_random_workloads(self):
        _s1, _m1, _p1, a = run_workload("hash_join", 500, seed=1)
        _s2, _m2, _p2, b = run_workload("hash_join", 500, seed=2)
        assert a.finished_at != b.finished_at
