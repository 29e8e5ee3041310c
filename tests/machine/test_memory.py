"""DRAM channel model: latency, bandwidth occupancy, remote penalties."""

import pytest

from repro.machine import bench_machine
from repro.machine.memory import MemoryChannel, MemorySystem


@pytest.fixture
def cfg():
    return bench_machine(
        nodes=2,
        dram_latency_cycles=200,
        node_dram_bytes_per_cycle=64.0,
        remote_dram_bandwidth_ratio=1 / 3,
    )


class TestChannel:
    """``service`` returns the response-ready time; ``free_at`` is where
    the request's occupancy ends, so ``free_at - occupancy`` is its
    service start."""

    def test_latency_plus_occupancy(self):
        ch = MemoryChannel()
        ready = ch.service(0.0, 64, bytes_per_cycle=64.0, latency_cycles=200.0)
        assert ch.free_at == 1.0  # starts at 0, occupies 1 cycle
        assert ready == 201.0

    def test_requests_serialize_on_bandwidth(self):
        ch = MemoryChannel()
        ch.service(0.0, 640, 64.0, 200.0)  # occupies 10 cycles
        ready = ch.service(0.0, 64, 64.0, 200.0)
        assert ch.free_at == 11.0  # starts at 10
        assert ready == 211.0

    def test_idle_channel_starts_immediately(self):
        ch = MemoryChannel()
        ch.service(0.0, 64, 64.0, 200.0)
        ready = ch.service(100.0, 64, 64.0, 200.0)
        assert ch.free_at == 101.0  # starts at 100
        assert ready == 301.0

    def test_counters(self):
        ch = MemoryChannel()
        ch.service(0.0, 64, 64.0, 200.0)
        ch.service(0.0, 128, 64.0, 200.0)
        assert ch.bytes_served == 192
        assert ch.requests == 2


class TestMemorySystem:
    def test_local_vs_remote_bandwidth(self, cfg):
        local, remote = MemorySystem(cfg), MemorySystem(cfg)
        t_local = local.access(0.0, requester_node=0, memory_node=0, nbytes=192)
        t_remote = remote.access(
            0.0, requester_node=1, memory_node=0, nbytes=192
        )
        # both start at 0, so free_at is the occupancy: remote requesters
        # get 1/3 of the bandwidth (paper §3.2's 3:1)
        occ_local = local.channel(0).free_at
        occ_remote = remote.channel(0).free_at
        assert occ_local == 3.0
        assert occ_remote == pytest.approx(occ_local * 3)
        assert t_local == 200.0 + occ_local
        assert t_remote == 200.0 + occ_remote

    def test_channels_are_per_node(self, cfg):
        mem = MemorySystem(cfg)
        mem.access(0.0, 0, 0, 640)
        ready = mem.access(0.0, 1, 1, 64)  # node 1's channel is idle
        assert mem.channel(1).free_at == 1.0  # starts at 0
        assert ready == 201.0

    def test_bytes_served_accounting(self, cfg):
        mem = MemorySystem(cfg)
        mem.access(0.0, 0, 0, 64)
        mem.access(0.0, 0, 0, 64)
        assert mem.bytes_served(0) == 128
        assert mem.bytes_served(1) == 0

    def test_aggregate_bandwidth_scales_with_striping(self, cfg):
        """The Figure 12 mechanism: spreading requests over more nodes
        raises aggregate service rate."""
        mem = MemorySystem(cfg)
        # 10 requests to one node: serialize
        last_single = max(
            mem.access(0.0, 0, 0, 64) for _ in range(10)
        )
        mem2 = MemorySystem(cfg)
        # 10 requests striped over two nodes: halve the queueing
        last_striped = max(
            mem2.access(0.0, n % 2, n % 2, 64) for n in range(10)
        )
        assert last_striped < last_single
