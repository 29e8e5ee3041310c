"""Simulator calibration: DES measurements vs closed-form predictions.

The authors calibrate Fastsim against the cycle-accurate Gem5sim (§5.1).
We have no second simulator, so we calibrate against *analytic* models in
regimes simple enough to solve by hand: pure-compute saturation, memory
bandwidth limits, network latency, and injection serialization.
"""

import pytest

from repro.kvmsr import KVMSRJob, make_do_all, MapTask, RangeInput
from repro.machine import MachineConfig, bench_machine
from repro.udweave import UDThread, UpDownRuntime, event


class TestComputeBound:
    def test_do_all_makespan_matches_work_over_lanes(self):
        """N tasks of W cycles on L lanes must take ~N*W/L cycles."""
        n_tasks, work = 256, 500
        rt = UpDownRuntime(bench_machine(nodes=4))  # 8 lanes
        make_do_all(rt, n_tasks, lambda ctx, k: ctx.work(work)).launch()
        stats = rt.run(max_events=2_000_000)
        ideal = n_tasks * work / rt.config.total_lanes
        assert ideal <= stats.final_tick <= ideal * 1.5

    def test_utilization_near_one_when_saturated(self):
        rt = UpDownRuntime(bench_machine(nodes=2))
        make_do_all(rt, 512, lambda ctx, k: ctx.work(1000)).launch()
        stats = rt.run(max_events=2_000_000)
        assert stats.utilization(rt.config.total_lanes) > 0.85


class TestMemoryBound:
    def test_dram_throughput_matches_bandwidth(self):
        """Streaming reads from one node's memory are served at the
        configured bytes/cycle, no faster."""
        cfg = bench_machine(nodes=1, node_dram_bytes_per_cycle=16.0)
        rt = UpDownRuntime(cfg)
        region = rt.dram_malloc(8 * 4096, name="stream")
        n_reads = 256  # 64B each -> 16KB total -> >= 1024 cycles at 16B/c

        @rt.register
        class Reader(UDThread):
            def __init__(self):
                self.left = n_reads

            @event
            def go(self, ctx):
                for i in range(n_reads):
                    ctx.send_dram_read(region.addr((i * 8) % 4096), 8, "back")
                ctx.yield_()

            @event
            def back(self, ctx, *words):
                self.left -= 1
                if self.left == 0:
                    ctx.yield_terminate()
                else:
                    ctx.yield_()

        rt.start(0, "Reader::go")
        stats = rt.run()
        ideal = n_reads * 64 / 16.0
        assert stats.final_tick >= ideal
        assert stats.final_tick <= ideal * 1.6  # + latency and dispatch


class TestLatency:
    def test_remote_message_roundtrip(self):
        """Ping-pong across nodes: 2 x 1000-cycle hops dominate."""
        rt = UpDownRuntime(bench_machine(nodes=2))
        remote = rt.config.first_lane_of_node(1)

        @rt.register
        class Ping(UDThread):
            @event
            def go(self, ctx):
                ctx.spawn(remote, "Ping::pong", cont=ctx.self_evw("back"))
                ctx.yield_()

            @event
            def pong(self, ctx):
                ctx.send_reply()
                ctx.yield_terminate()

            @event
            def back(self, ctx):
                ctx.yield_terminate()

        rt.start(0, "Ping::go")
        stats = rt.run()
        rtt = 2 * rt.config.remote_msg_latency_cycles
        assert rtt <= stats.final_tick <= rtt * 1.2

    def test_local_roundtrip_much_cheaper(self):
        rt = UpDownRuntime(bench_machine(nodes=2))

        @rt.register
        class Ping(UDThread):
            @event
            def go(self, ctx):
                ctx.spawn(1, "Ping::pong", cont=ctx.self_evw("back"))
                ctx.yield_()

            @event
            def pong(self, ctx):
                ctx.send_reply()
                ctx.yield_terminate()

            @event
            def back(self, ctx):
                ctx.yield_terminate()

        rt.start(0, "Ping::go")
        stats = rt.run()
        assert stats.final_tick < 3 * rt.config.local_msg_latency_cycles


class TestInjectionBound:
    def test_burst_send_serializes_at_injection_bandwidth(self):
        """A lane blasting remote messages is limited by the node's
        injection port: makespan >= n * message_bytes / injection_bw."""
        cfg = bench_machine(nodes=2, node_injection_bytes_per_cycle=8.0)
        rt = UpDownRuntime(cfg)
        remote = cfg.first_lane_of_node(1)
        n_msgs = 128

        @rt.register
        class Blast(UDThread):
            @event
            def go(self, ctx):
                for _ in range(n_msgs):
                    ctx.spawn(remote, "Blast::sink")
                ctx.yield_terminate()

            @event
            def sink(self, ctx):
                ctx.yield_terminate()

        rt.start(0, "Blast::go")
        stats = rt.run()
        ideal = n_msgs * cfg.message_bytes / 8.0
        assert stats.final_tick >= ideal


class TestFidelityModes:
    """Fast (1-channel) vs detailed (banked) memory — the Fastsim/Gem5sim
    calibration cross-check of §5.1, with the two fidelity levels of this
    simulator standing in for the two simulators."""

    def test_fast_and_detailed_agree_on_results(self, rmat_s6=None):
        import numpy as np

        from repro.apps import PageRankApp
        from repro.graph import rmat

        g = rmat(7, seed=48)
        ranks = {}
        for banks in (1, 8):
            rt = UpDownRuntime(
                bench_machine(nodes=4), memory_banks_per_node=banks
            )
            app = PageRankApp(rt, g, max_degree=16, block_size=4096)
            ranks[banks] = app.run(max_events=10_000_000).ranks
        # timing differences reorder float accumulation (as on the real
        # machine); results agree to float tolerance, not bit-exactly
        assert np.allclose(ranks[1], ranks[8], rtol=0, atol=1e-12)

    def test_fast_and_detailed_agree_on_timing(self):
        """Balanced traffic: per-bank shares sum to the node bandwidth, so
        the two fidelity levels agree within a tolerance (the paper's 1-4
        node calibration claim)."""
        from repro.apps import PageRankApp
        from repro.graph import rmat

        g = rmat(9, seed=48)
        times = {}
        for banks in (1, 8):
            rt = UpDownRuntime(
                bench_machine(nodes=4), memory_banks_per_node=banks
            )
            app = PageRankApp(rt, g, max_degree=32, block_size=4096)
            times[banks] = app.run(max_events=30_000_000).elapsed_seconds
        ratio = times[8] / times[1]
        assert 0.7 < ratio < 1.5

    def test_detailed_mode_separates_banks(self):
        """Hot single-256B-line traffic serializes on one bank in detailed
        mode: the detailed makespan exceeds the fast one."""
        from repro.machine.memory import MemorySystem

        cfg = bench_machine(nodes=1, node_dram_bytes_per_cycle=64.0)
        fast = MemorySystem(cfg, banks_per_node=1)
        detailed = MemorySystem(cfg, banks_per_node=8)
        t_fast = max(
            fast.access(0.0, 0, 0, 64, local_offset=0)
            for _ in range(32)
        )
        t_detailed = max(
            detailed.access(0.0, 0, 0, 64, local_offset=0)
            for _ in range(32)
        )
        assert t_detailed > t_fast  # one bank has 1/8 the bandwidth

    def test_bank_selection_by_address(self):
        from repro.machine.memory import MemorySystem

        cfg = bench_machine(nodes=1)
        mem = MemorySystem(cfg, banks_per_node=4)
        assert mem._bank_of(0) == 0
        assert mem._bank_of(256) == 1
        assert mem._bank_of(1024) == 0

    def test_invalid_banks_rejected(self):
        from repro.machine.memory import MemorySystem

        with pytest.raises(ValueError):
            MemorySystem(bench_machine(nodes=1), banks_per_node=0)
