"""Remote DRAM cost model: the 7:1 latency knob and injection routing.

Remote accesses are split-phase *events*: the request rides the fabric,
is serviced when it arrives at the memory node, and the response comes
back as a scheduled delivery.  Costs are therefore measured by draining
the simulator and reading the time the response handler starts — the
same way a program observes DRAM latency.
"""

import pytest

from repro.faults import FaultPlan
from repro.machine import DramAccess, MessageRecord, Simulator, bench_machine
from repro.machine.events import NEW_THREAD
from repro.machine.network import InjectionChannel


def _sim(**overrides):
    executed = []

    def dispatcher(sim, lane, rec, start):
        executed.append((rec.label, start))
        return 1.0

    sim = Simulator(bench_machine(nodes=2, **overrides), dispatcher=dispatcher)
    sim.executed = executed
    return sim


def _round_trip(sim, src, mem, nbytes=64):
    """Issue one read from a lane on ``src`` and return the time its
    response handler starts executing (the observed round-trip)."""
    requester = sim.config.first_lane_of_node(src)
    resp = DramAccess(mem, nbytes, 0, requester, NEW_THREAD, "resp")
    sim.dram_issue(requester, src, True, ((0.0, resp),))
    sim.run()
    return sim.executed[-1][1]


class TestLatencyRatioKnob:
    """``remote_dram_latency_ratio`` (paper §3.2's 7:1) must be what
    actually sets remote cost — it was previously an unread field."""

    # make byte-transfer occupancies negligible so the measured ratio is
    # the pure latency ratio
    FAST = dict(
        node_dram_bytes_per_cycle=1e9,
        node_injection_bytes_per_cycle=1e9,
    )

    def test_default_ratio_is_seven(self):
        local = _round_trip(_sim(**self.FAST), 0, 0)
        remote = _round_trip(_sim(**self.FAST), 0, 1)
        assert remote / local == pytest.approx(7.0, rel=1e-3)

    @pytest.mark.parametrize("ratio", [1, 3, 7, 11])
    def test_knob_sets_measured_ratio(self, ratio):
        local = _round_trip(
            _sim(remote_dram_latency_ratio=ratio, **self.FAST), 0, 0
        )
        remote = _round_trip(
            _sim(remote_dram_latency_ratio=ratio, **self.FAST), 0, 1
        )
        assert remote / local == pytest.approx(float(ratio), rel=1e-3)

    def test_transit_derivation(self):
        cfg = bench_machine(nodes=2)
        # one transit each way on top of the device latency lands the
        # unloaded total at ratio * dram_latency_cycles
        assert (
            cfg.dram_latency_cycles + 2 * cfg.remote_dram_transit_cycles
            == cfg.remote_dram_latency_ratio * cfg.dram_latency_cycles
        )

    def test_dram_timing_untouched_by_delay_faults(self):
        """Delay faults perturb lane-to-lane messages only: a remote DRAM
        round trip costs the same with every message delay-faulted
        (fault runs must not perturb the memory system)."""
        times = {}
        for plan in (None, FaultPlan(seed=1, delay_rate=1.0)):
            executed = []

            def dispatcher(sim, lane, rec, start, executed=executed):
                executed.append(start)
                return 1.0

            sim = Simulator(
                bench_machine(nodes=2), dispatcher=dispatcher, faults=plan
            )
            resp = DramAccess(1, 64, 0, 0, NEW_THREAD, "r")
            sim.dram_issue(0, 0, True, ((0.0, resp),))
            sim.run()
            times[plan is None] = executed[-1]
            assert sim.stats.dram_remote_accesses == 1
        assert times[True] == times[False]


class TestInjectionRouting:
    """Remote split-phase traffic rides the injection-bandwidth model in
    both directions — DRAM-heavy apps can saturate injection."""

    def test_remote_read_injects_both_directions(self):
        sim = _sim()
        _round_trip(sim, src=0, mem=1, nbytes=512)
        cfg = sim.config
        # request: command message out of the source node
        assert sim.network.injected_bytes(0) == cfg.message_bytes
        # response: the data back out of the memory node
        assert sim.network.injected_bytes(1) == 512

    def test_remote_write_injects_data_then_completion(self):
        sim = _sim()
        sim.dram_issue(None, 0, False, ((0.0, DramAccess(1, 512, 0)),))
        sim.run()
        cfg = sim.config
        assert sim.network.injected_bytes(0) == cfg.message_bytes + 512
        assert sim.network.injected_bytes(1) == cfg.message_bytes

    def test_local_access_stays_off_the_fabric(self):
        sim = _sim()
        _round_trip(sim, src=0, mem=0, nbytes=512)
        assert sim.network.injected_bytes(0) == 0

    def test_back_to_back_requests_queue_on_injection(self):
        """With a tiny injection pipe, concurrent remote reads serialize
        at the source port and the later ones finish later."""
        sim = _sim(node_injection_bytes_per_cycle=1.0)
        t1 = _round_trip(sim, 0, 1)
        t2 = _round_trip(sim, 0, 1)
        assert t2 > t1

    def test_injection_queueing_delays_completion(self):
        """The same access costs more when the injection port is slow —
        the channel is on the critical path, not just a counter."""
        fast = _round_trip(
            _sim(node_injection_bytes_per_cycle=1e9), 0, 1, nbytes=512
        )
        slow = _round_trip(
            _sim(node_injection_bytes_per_cycle=1.0), 0, 1, nbytes=512
        )
        assert slow > fast

    def test_requests_serviced_in_arrival_order(self):
        """Two requests racing to one memory node are serviced in fabric
        arrival order, not issue-call order — the far requester issued
        first but arrives second behind a near one that issued later."""
        executed = []

        def dispatcher(sim, lane, rec, start):
            executed.append((rec.label, start))
            return 1.0

        sim = Simulator(
            bench_machine(nodes=3, node_injection_bytes_per_cycle=1.0),
            dispatcher=dispatcher,
        )
        lane_far = sim.config.first_lane_of_node(2)
        lane_near = sim.config.first_lane_of_node(1)
        # far issues first but behind a saturated injection port
        ch = sim.network._injection[2] = InjectionChannel()
        ch.free_at = 5000.0
        far = DramAccess(0, 64, 0, lane_far, NEW_THREAD, "far")
        near = DramAccess(0, 64, 0, lane_near, NEW_THREAD, "near")
        sim.dram_issue(lane_far, 2, True, ((0.0, far),))
        sim.dram_issue(lane_near, 1, True, ((1.0, near),))
        sim.run()
        assert [label for label, _ in executed] == ["near", "far"]
        # the near response was serviced first, so it also returns first
        assert executed[0][1] < executed[1][1]


class TestHostBoundTaxonomy:
    def test_message_counters_partition_sent(self):
        """Every send lands in exactly one taxonomy bucket; host-bound
        result messages were previously dropped from the partition."""
        sim = _sim()
        from repro.machine import HOST_NWID

        dst_remote = sim.config.first_lane_of_node(1)
        sim.send(MessageRecord(0, NEW_THREAD, "l"), 0.0, src_node=0)
        sim.send(MessageRecord(dst_remote, NEW_THREAD, "r"), 0.0, src_node=0)
        sim.send(
            MessageRecord(0, NEW_THREAD, "h", src_network_id=None),
            0.0,
            src_node=None,
        )
        sim.send(MessageRecord(HOST_NWID, 0, "done"), 0.0, src_node=0)
        s = sim.stats
        assert s.messages_host_bound == 1
        assert s.messages_sent == (
            s.messages_local
            + s.messages_remote
            + s.messages_host_injected
            + s.messages_host_bound
        )
        assert "messages_host_bound" in s.scalar_snapshot()
