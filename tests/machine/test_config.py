"""MachineConfig: topology arithmetic and validation."""

import math

import pytest

from repro.machine import MachineConfig, bench_machine, paper_machine


class TestTopologyArithmetic:
    def test_paper_machine_lane_counts(self):
        cfg = paper_machine()
        assert cfg.lanes_per_node == 2048
        assert cfg.total_lanes == 16384 * 2048  # ~33M lanes (§3.1)

    def test_node_of_roundtrip(self):
        cfg = MachineConfig(nodes=4, accels_per_node=2, lanes_per_accel=4)
        for node in range(4):
            for accel in range(2):
                for lane in range(4):
                    nwid = cfg.network_id(node, accel, lane)
                    assert cfg.node_of(nwid) == node
                    assert cfg.lane_in_node(nwid) == accel * 4 + lane

    def test_network_ids_are_dense_and_unique(self):
        cfg = MachineConfig(nodes=3, accels_per_node=2, lanes_per_accel=2)
        ids = [
            cfg.network_id(n, a, l)
            for n in range(3)
            for a in range(2)
            for l in range(2)
        ]
        assert sorted(ids) == list(range(cfg.total_lanes))

    def test_accel_of_is_global(self):
        cfg = MachineConfig(nodes=2, accels_per_node=3, lanes_per_accel=4)
        assert cfg.accel_of(0) == 0
        assert cfg.accel_of(cfg.lanes_per_node) == 3  # first accel of node 1

    def test_first_lane_of_accel(self):
        cfg = MachineConfig(nodes=2, accels_per_node=2, lanes_per_accel=8)
        assert cfg.first_lane_of_accel(0) == 0
        assert cfg.first_lane_of_accel(3) == 24

    def test_out_of_range_rejected(self):
        cfg = MachineConfig(nodes=2, accels_per_node=2, lanes_per_accel=2)
        with pytest.raises(ValueError):
            cfg.node_of(cfg.total_lanes)
        with pytest.raises(ValueError):
            cfg.network_id(2, 0, 0)
        with pytest.raises(ValueError):
            cfg.first_lane_of_node(5)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": 0},
            {"accels_per_node": 0},
            {"lanes_per_accel": -1},
            {"clock_hz": 0},
            {"remote_dram_latency_ratio": 0},
            {"remote_dram_bandwidth_ratio": 0.0},
            {"remote_dram_bandwidth_ratio": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MachineConfig(**kwargs)

    @pytest.mark.parametrize("size", [64.0, -8, 0, True])
    def test_message_bytes_must_be_positive_int(self, size):
        """A float size would make the injection channels' exact int
        byte totals float; a non-positive one would run to completion
        with negative traffic."""
        with pytest.raises(ValueError, match="message_bytes"):
            MachineConfig(message_bytes=size)
        with pytest.raises(ValueError, match="message_bytes"):
            bench_machine(nodes=2, message_bytes=size)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("local_msg_latency_cycles", -500),
            ("remote_msg_latency_cycles", -1),
            ("dram_latency_cycles", -5),
            ("dram_latency_cycles", math.inf),
            ("local_msg_latency_cycles", math.nan),
            ("node_dram_bytes_per_cycle", math.nan),
            ("node_dram_bytes_per_cycle", -1.0),
            ("node_injection_bytes_per_cycle", 0.0),
            ("node_injection_bytes_per_cycle", math.inf),
        ],
    )
    def test_latency_and_bandwidth_must_be_runnable(self, name, value):
        """A negative latency delivers messages before they are sent; a
        zero bandwidth divides by zero mid-run.  The error names the
        field, on the bench machine's override path too."""
        with pytest.raises(ValueError, match=name):
            MachineConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            bench_machine(nodes=2, **{name: value})

    def test_zero_latency_stays_legal(self):
        cfg = MachineConfig(
            local_msg_latency_cycles=0,
            remote_msg_latency_cycles=0,
            dram_latency_cycles=0,
        )
        assert cfg.dram_latency_cycles == 0

    def test_every_shipped_machine_constructs(self):
        from repro.harness import bench_config

        paper_machine()
        MachineConfig()
        for nodes in (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024):
            bench_machine(nodes=nodes)
            bench_config(nodes)
            bench_config(nodes).scaled(2 * nodes)

    def test_removed_knob_is_not_accepted(self):
        with pytest.raises(TypeError):
            MachineConfig(parallel_adaptive_max=2)

    def test_cycles_to_seconds_uses_2ghz(self):
        cfg = MachineConfig()
        # the artifact's conversion: time[s] = ticks / 2e9
        assert cfg.cycles_to_seconds(2_000_000_000) == pytest.approx(1.0)

    def test_scaled_changes_only_nodes(self):
        cfg = bench_machine(nodes=2)
        cfg2 = cfg.scaled(16)
        assert cfg2.nodes == 16
        assert cfg2.lanes_per_accel == cfg.lanes_per_accel
        assert cfg2.node_dram_bytes_per_cycle == cfg.node_dram_bytes_per_cycle


class TestBenchMachine:
    def test_bandwidth_scales_with_lane_reduction(self):
        # 32 lanes/node = 1/64 of the paper node; bandwidth scales by the
        # same factor times the calibrated boost
        cfg = bench_machine(
            nodes=1, accels_per_node=4, lanes_per_accel=8, bandwidth_boost=1.0
        )
        assert cfg.lanes_per_node == 32
        assert cfg.node_dram_bytes_per_cycle == pytest.approx(4700.0 / 64)
        assert cfg.node_injection_bytes_per_cycle == pytest.approx(2000.0 / 64)

    def test_default_shape_is_two_lane_slice(self):
        cfg = bench_machine(nodes=4)
        assert cfg.lanes_per_node == 2
        assert cfg.node_dram_bytes_per_cycle == pytest.approx(
            4700.0 / 1024 * 4.0
        )

    def test_overrides_pass_through(self):
        cfg = bench_machine(nodes=1, dram_latency_cycles=999)
        assert cfg.dram_latency_cycles == 999
