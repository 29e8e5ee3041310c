"""Reliable delivery: ack/retry recovery, dedup, give-up, determinism.

The workload is a cross-node relay: each hop spawns a fresh thread on the
other node, so every hop is one remote lane-to-lane message — exactly the
traffic class the fault plan perturbs and the transport tracks.
"""

import pytest

from repro.faults import FaultPlan, ReliabilityConfig
from repro.harness import fingerprint
from repro.machine import bench_machine
from repro.udweave import UDThread, UpDownRuntime, event


class Relay(UDThread):
    """Forwards a countdown across nodes; reports completion to the host."""

    @event
    def hop(self, ctx, remaining):
        if remaining == 0:
            ctx.send_event(ctx.runtime.host_evw("relay_done"), remaining)
        else:
            # bounce between the first lanes of nodes 0 and 1
            here = ctx.network_id
            dst = 0 if here >= ctx.runtime.config.lanes_per_node else \
                ctx.runtime.config.lanes_per_node
            ctx.send_event(
                ctx.runtime.evw(dst, "Relay::hop"), remaining - 1
            )
        ctx.yield_terminate()


HOPS = 120


def relay_run(faults=None, reliable=False, hops=HOPS):
    rt = UpDownRuntime(
        bench_machine(nodes=2), faults=faults, reliable=reliable
    )
    rt.register(Relay)
    rt.start(0, "Relay::hop", hops)
    stats = rt.run(max_events=500_000)
    return rt, stats


class TestRecovery:
    def test_drops_break_the_chain_without_transport(self):
        rt, stats = relay_run(faults=FaultPlan(seed=13, drop_rate=0.05))
        assert stats.faults_messages_dropped > 0
        # the chain dies at the first drop: no completion ever arrives
        assert rt.host_messages("relay_done") == []
        # ... silently: nothing is queued and nothing is waiting, which
        # is exactly why the harness checks quiescence via live threads
        assert stats.quiesced

    def test_transport_recovers_every_drop(self):
        rt, stats = relay_run(
            faults=FaultPlan(seed=13, drop_rate=0.05), reliable=True
        )
        assert stats.faults_messages_dropped > 0
        assert stats.transport_retransmits > 0
        assert len(rt.host_messages("relay_done")) == 1
        assert stats.quiesced
        # every data message was tracked and eventually acknowledged
        assert stats.transport_give_ups == 0

    def test_fault_free_transport_is_pure_overhead(self):
        rt, stats = relay_run(reliable=True)
        assert len(rt.host_messages("relay_done")) == 1
        assert stats.transport_tracked == HOPS
        assert stats.transport_acks == HOPS
        assert stats.transport_retransmits == 0
        assert stats.transport_dup_suppressed == 0


class TestDeduplication:
    def test_duplicates_suppressed_at_receiver(self):
        rt, stats = relay_run(
            faults=FaultPlan(seed=21, duplicate_rate=0.15), reliable=True
        )
        assert stats.faults_messages_duplicated > 0
        assert stats.transport_dup_suppressed > 0
        # dedup keeps exactly-once handler execution: one completion
        assert len(rt.host_messages("relay_done")) == 1

    def test_duplicates_fork_the_chain_without_transport(self):
        # short chain: every duplicated hop spawns a full extra tail, so
        # the fork count grows geometrically with hop count
        rt, stats = relay_run(
            faults=FaultPlan(seed=21, duplicate_rate=0.1), hops=40
        )
        assert stats.faults_messages_duplicated > 0
        # at-least-once delivery without dedup executes handlers more
        # than once: several chain tails reach the end
        assert len(rt.host_messages("relay_done")) > 1


class TestGiveUp:
    def test_total_blackout_gives_up_instead_of_hanging(self):
        rt, stats = relay_run(
            faults=FaultPlan(seed=3, drop_rate=1.0),
            reliable=ReliabilityConfig(max_retries=2),
        )
        assert rt.host_messages("relay_done") == []
        assert stats.transport_give_ups > 0
        # bounded: 1 original + max_retries retransmits for the one
        # tracked message the chain got to issue
        assert stats.transport_retransmits == 2
        assert stats.quiesced  # the run ends; it does not wedge

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ReliabilityConfig(ack_timeout_cycles=0.0)


class TestDeterminism:
    def test_faulty_reliable_run_is_bit_reproducible(self):
        fps = []
        for _ in range(2):
            rt, _stats = relay_run(
                faults=FaultPlan(seed=13, drop_rate=0.05, duplicate_rate=0.05),
                reliable=True,
            )
            fps.append(fingerprint(rt.sim))
        assert fps[0] == fps[1]

    def test_different_seed_perturbs_different_messages(self):
        _rt, a = relay_run(faults=FaultPlan(seed=1, drop_rate=0.05),
                           reliable=True)
        _rt, b = relay_run(faults=FaultPlan(seed=2, drop_rate=0.05),
                           reliable=True)
        assert a.scalar_snapshot() != b.scalar_snapshot()
