"""Batched label-homogeneous dispatch: bit-exact parity + conservation.

The contract (DESIGN.md "Event IR & batched dispatch"): flipping
``MachineConfig(batch_dispatch=True)`` may never change the simulation —
only how fast the host reaches it.  These tests pin that across every
drain the simulator offers (sequential, sharded, faulted transport) and
assert the record-conservation invariant
``records_batched + events_interpreted == events_executed``.
"""

import pytest

from repro.graph import rmat
from repro.harness import bench_config
from repro.machine.stats import HOST_SPLIT_KEYS as BATCH_KEYS
from repro.udweave import UpDownRuntime

GRAPH = rmat(8, seed=7)
BLOCK = 4096
NODES = 4


def _run_pr(batch, shards=1, faults=False):
    fault_kw = {}
    if faults:
        from repro.faults import FaultPlan

        fault_kw = dict(
            faults=FaultPlan(seed=5, drop_rate=0.02), reliable=True
        )
    rt = UpDownRuntime(
        bench_config(NODES, batch_dispatch=batch),
        shards=shards,
        **fault_kw,
    )
    from repro.apps import PageRankApp

    res = PageRankApp(rt, GRAPH, block_size=BLOCK).run(iterations=2)
    return {
        "snapshot": rt.sim.stats.scalar_snapshot(),
        "model": rt.sim.stats.model_snapshot(),
        "drains": rt.sim.batch_report()["drains"],
        "mailbox": [
            (t, rec.label, rec.operands) for t, rec in rt.sim.host_inbox
        ],
        "ranks": list(res.ranks),
        "stats": rt.sim.stats,
    }


def _strip(snapshot, keys):
    return {k: v for k, v in snapshot.items() if k not in keys}


def _assert_conserved(stats):
    assert (
        stats.records_batched + stats.events_interpreted
        == stats.events_executed
    )


class TestSequentialParity:
    def test_batch_on_matches_off_bit_for_bit(self):
        off = _run_pr(batch=False)
        on = _run_pr(batch=True)
        assert _strip(on["snapshot"], BATCH_KEYS) == _strip(
            off["snapshot"], BATCH_KEYS
        )
        assert on["mailbox"] == off["mailbox"]
        assert on["ranks"] == off["ranks"]
        # the batch path actually fired, and every record is accounted
        # for exactly once — batched or interpreted, never both/neither
        assert on["stats"].records_batched > 0
        assert on["stats"].batches_executed > 0
        _assert_conserved(on["stats"])
        _assert_conserved(off["stats"])

    def test_batch_off_fully_disables_the_path(self):
        off = _run_pr(batch=False)
        assert off["stats"].records_batched == 0
        assert off["stats"].batches_executed == 0
        assert off["stats"].events_interpreted == (
            off["stats"].events_executed
        )

    def test_events_executed_counts_each_batched_record(self):
        """A batch of N records is N events, never 1 (the bench's
        events/sec would otherwise inflate itself)."""
        off = _run_pr(batch=False)
        on = _run_pr(batch=True)
        assert on["stats"].events_executed == off["stats"].events_executed
        mean = (
            on["stats"].records_batched / on["stats"].batches_executed
        )
        assert mean > 1.0  # batching amortized something


class TestShardedParity:
    """Shard windows arm parking like the sequential drain: the model
    equals the interpreted sequential run, and the batch core fires."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_in_process_shards(self, shards):
        off = _run_pr(batch=False)
        on = _run_pr(batch=True, shards=shards)
        assert on["model"] == off["model"]
        assert on["mailbox"] == off["mailbox"]
        assert on["ranks"] == off["ranks"]
        assert on["stats"].records_batched > 0
        assert on["drains"] == {"armed": 1}
        _assert_conserved(on["stats"])

    def test_sharded_matches_sequential_batched(self):
        seq_on = _run_pr(batch=True)
        shd_on = _run_pr(batch=True, shards=2)
        assert _strip(shd_on["snapshot"], BATCH_KEYS) == _strip(
            seq_on["snapshot"], BATCH_KEYS
        )
        assert shd_on["mailbox"] == seq_on["mailbox"]
        assert shd_on["ranks"] == seq_on["ranks"]


class TestFaultedParity:
    def test_faulted_drain_disarms_parking(self):
        off = _run_pr(batch=False, faults=True)
        on = _run_pr(batch=True, faults=True)
        assert on["snapshot"] == off["snapshot"]
        assert on["mailbox"] == off["mailbox"]
        assert on["ranks"] == off["ranks"]
        assert on["stats"].records_batched == 0
        _assert_conserved(on["stats"])


class TestQuiescence:
    def test_parked_records_block_quiescence_until_flushed(self):
        """After a completed run nothing may still be parked."""
        on = _run_pr(batch=True)
        assert on["stats"].quiesced
        assert on["snapshot"]["events_executed"] > 0
