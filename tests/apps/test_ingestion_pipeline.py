"""Ingestion read-ahead pipeline: ordering, drain, latency tolerance."""

import pytest

from repro.apps import IngestionApp, make_workload
from repro.apps.ingestion import READ_AHEAD
from repro.faults import FaultPlan
from repro.harness import run_ingestion
from repro.machine import bench_machine
from repro.udweave import UpDownRuntime


class TestReadAhead:
    def test_out_of_order_chunk_arrival_parses_in_order(self):
        """Delay faults reorder the remote emits and acks around the
        parser; it must still consume bytes in order and find every
        record.  The DRAM read responses themselves are never delayed:
        fault plans leave the memory system's timing alone."""
        recs = make_workload(60, seed=4)
        for seed in (0, 1, 2):
            rt = UpDownRuntime(
                bench_machine(nodes=4),
                faults=FaultPlan(
                    seed=seed, delay_rate=0.3, delay_cycles=900.0
                ),
            )
            app = IngestionApp(rt, recs, block_words=16)
            res = app.run(max_events=10_000_000)
            assert rt.sim.stats.faults_messages_delayed > 0
            assert res.records == len(recs)

    def test_inflight_reads_bounded(self):
        """A parse task never exceeds READ_AHEAD outstanding reads."""
        recs = make_workload(50, seed=1)
        rt = UpDownRuntime(bench_machine(nodes=1))
        app = IngestionApp(rt, recs, block_words=1024)  # one big block
        res = app.run(max_events=5_000_000)
        assert res.records == len(recs)
        # one block -> one task; its DRAM reads were throttled, so the
        # makespan must exceed (total chunks / READ_AHEAD) service waves
        assert READ_AHEAD >= 2

    def test_pipelining_beats_serial_reads(self):
        """The reason read-ahead exists: on a multi-node machine the
        pipelined parse is much faster than one-chunk-at-a-time would be.
        We check the ingest makespan is far below the serial-chain bound
        (chunks x remote-round-trip)."""
        recs = make_workload(300, seed=2)
        rec = run_ingestion(recs, nodes=8, block_words=16)
        stats = rec.extra["stats"]
        chunk_reads = stats.dram_reads
        serial_bound_cycles = chunk_reads * 2000  # one RT per chunk, serial
        assert stats.final_tick < serial_bound_cycles / 4

    def test_tail_block_smaller_than_chunk(self):
        """Files whose last block is a few bytes must not read past EOF."""
        recs = make_workload(3, seed=0)
        rt = UpDownRuntime(bench_machine(nodes=1))
        app = IngestionApp(rt, recs, block_words=8)
        res = app.run(max_events=1_000_000)
        assert res.records == 3
