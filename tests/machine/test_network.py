"""Network model: latency constants, injection bandwidth."""

import pytest

from repro.machine import bench_machine
from repro.machine.network import Network


@pytest.fixture
def net():
    return Network(bench_machine(nodes=4))


def _latency(net, src, dst):
    """One-way latency of a zero-byte message: no injection occupancy,
    so the delivery time is the fabric latency alone."""
    return net.deliver_time(0.0, src, dst, 0)


class TestLatency:
    def test_remote_latency_is_half_microsecond(self, net):
        # 0.5 us at 2 GHz = 1000 cycles (paper §3)
        assert _latency(net, 0, 1) == 1000.0

    def test_local_latency_much_smaller(self, net):
        assert _latency(net, 2, 2) < _latency(net, 2, 3)

    def test_diameter3_distance_independence(self, net):
        # PolarStar is diameter-3: remote latency is pair-independent
        remote = _latency(net, 0, 1)
        assert _latency(net, 0, 3) == _latency(net, 2, 0) == remote

    def test_latency_is_fixed(self, net):
        # Fastsim charges fixed latencies: repeated unloaded sends see
        # one value (reordering comes only from FaultPlan delay faults)
        assert len({_latency(net, 0, 1) for _ in range(10)}) == 1


class TestInjection:
    def test_intranode_bypasses_injection_port(self, net):
        t = net.deliver_time(0.0, 0, 0, 64)
        assert t == _latency(net, 0, 0)
        assert net.injected_bytes(0) == 0

    def test_back_to_back_sends_queue(self):
        cfg = bench_machine(nodes=2, node_injection_bytes_per_cycle=32.0)
        net = Network(cfg)
        t1 = net.deliver_time(0.0, 0, 1, 64)
        t2 = net.deliver_time(0.0, 0, 1, 64)
        # second message waits for the first's 2-cycle occupancy
        assert t2 == pytest.approx(t1 + 64 / 32.0)

    def test_injection_tracks_bytes(self):
        net = Network(bench_machine(nodes=2))
        net.deliver_time(0.0, 0, 1, 64)
        net.deliver_time(0.0, 0, 1, 64)
        assert net.injected_bytes(0) == 128

    def test_host_injection_is_free(self, net):
        assert net.deliver_time(5.0, None, 3, 64) == 5.0

    def test_channel_admit_is_monotone(self):
        """Each admission site queues a transfer behind the channel's
        previous one; the reply virtual channel queues independently."""
        cfg = bench_machine(nodes=2, node_injection_bytes_per_cycle=32.0)
        net = Network(cfg)
        d1 = net.deliver_time(0.0, 0, 1, 64)
        d2 = net.deliver_time(1.0, 0, 1, 64)
        assert d2 == d1 + 2.0
        # a DRAM request leg shares the message channel ...
        assert net.dram_hop(0.0, 0, 1, 64, 10.0) == 6.0 + 10.0
        # ... its reply leg rides the node's own reply channel
        assert net.dram_hop(0.0, 0, 1, 64, 10.0, True) == 2.0 + 10.0
        assert net.dram_hop(0.0, 0, 1, 32, 10.0, True) == 3.0 + 10.0
        assert net.injected_bytes(0) == 3 * 64 + 64 + 32

    def test_byte_accounting_is_overflow_safe(self):
        """Long chaos soaks push channel totals past 2**53; the counters
        must stay exact Python ints there, recorded or not, on both
        virtual channels — float accumulation would silently lose whole
        bytes."""

        class _Rec:
            def inj_sample(self, *a):
                pass

        for recorder in (None, _Rec()):
            net = Network(bench_machine(nodes=2), recorder=recorder)
            net._channel(0).bytes_injected = 2**53  # past exact floats
            net.deliver_time(0.0, 0, 1, 64)
            assert isinstance(net.injected_bytes(0), int)
            assert net.injected_bytes(0) == 2**53 + 64
            net.dram_hop(1.0, 0, 1, 1, 10.0)
            assert net.injected_bytes(0) == 2**53 + 65  # float would drop it
            net.dram_hop(1.0, 0, 1, 1, 10.0, True)
            assert isinstance(net._reply[0].bytes_injected, int)
            assert net.injected_bytes(0) == 2**53 + 66

    def test_occupancy_memo_matches_direct_division(self):
        """deliver_time's per-size occupancy memo must reproduce the
        exact division — same floats, just computed once per size."""
        cfg = bench_machine(nodes=2)
        net = Network(cfg)
        t1 = net.deliver_time(0.0, 0, 1, 64)
        expected = 64 / cfg.node_injection_bytes_per_cycle + 1000.0
        assert t1 == expected
        # memoized second call: queues exactly one occupancy behind
        t2 = net.deliver_time(0.0, 0, 1, 64)
        assert t2 == t1 + 64 / cfg.node_injection_bytes_per_cycle
