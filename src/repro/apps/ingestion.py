"""Ingestion: parallel-file parse + streaming graph construction (§5.2.4).

"TFORM and KVMSR are used to load, parse a parallel file, and insert it
into a graph data structure" (Figure 10).  The file is a word-addressed
global-memory region; KVMSR maps over fixed-size blocks; inside, each
kv_map task "deals with variable-size records that can span block
boundaries, accessing across blocks" — the task skips to the first record
starting in its block and keeps reading past the block end until its last
record completes.  Parsed records are emitted straight to kv_reduce tasks
that insert them into the Parallel Graph Abstraction — the third-party
composition where "the intermediate key-value map does not need to be
materialized" (§2.1.3); the artifact runs parse and insert as two phases,
ours fuses them through the shuffle, which is the composition the paper
advocates.

Ownership rule for boundary records: a record belongs to the block where
its first byte lies.  Block ``b > 0`` therefore scans from byte
``block_begin - 1`` for a newline (the previous record's terminator) and
parses from the byte after it; block 0 parses from byte 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.datastruct.pgraph import ParallelGraph
from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask, job_of
from repro.machine.stats import SimStats
from repro.udweave import MAX_DRAM_READ_WORDS, UpDownRuntime, event

from .tform import (
    REC_EDGE,
    REC_VERTEX,
    Record,
    Transducer,
    pack_text,
    unpack_words,
    workload_csv,
)

#: default parse granularity: 64 words = 512 bytes per block
DEFAULT_BLOCK_WORDS = 64

#: modeled TFORM speed: accelerated sub-byte transduction (paper [28])
TFORM_CYCLES_PER_BYTE = 0.5

#: 8-word read chunks kept in flight per parse task (latency tolerance)
READ_AHEAD = 4


class IngestMapTask(MapTask):
    """Parse one file block; emit every record starting inside it.

    Reads are software-pipelined: up to :data:`READ_AHEAD` 8-word chunks
    stay in flight while earlier bytes are parsed (UpDown's non-blocking
    memory access + multithreading latency tolerance, §3.2).  Responses
    may arrive out of order; bytes are consumed strictly in order.
    """

    def __init__(self) -> None:
        super().__init__()
        self.transducer = Transducer()
        self.byte_pos = 0
        self.block_end = 0
        self.started = False  # seen the first record start yet?
        self.file_bytes = 0
        self.buffer: dict = {}       # word index -> words tuple
        self.next_issue_word = 0
        self.inflight = 0
        self.finishing = False

    def kv_map(self, ctx, block):
        app = self.job(ctx).payload
        bw = app.block_words
        self.file_bytes = app.file_bytes
        block_begin = block * bw * 8
        self.block_end = min((block + 1) * bw * 8, self.file_bytes)
        if block == 0:
            self.byte_pos = 0
            self.started = True
        else:
            # scan from the byte before the block for the prior terminator
            self.byte_pos = block_begin - 1
            self.started = False
        self.next_issue_word = self.byte_pos // 8
        self._pump_reads(ctx)
        if self.inflight == 0:  # block starts at/after end of file
            self.kv_map_return(ctx)
        else:
            ctx.yield_()

    def _pump_reads(self, ctx) -> None:
        app = self.job(ctx).payload
        while (
            not self.finishing
            and self.inflight < READ_AHEAD
            and self.next_issue_word < app.file_words
        ):
            w = self.next_issue_word
            nwords = min(MAX_DRAM_READ_WORDS, app.file_words - w)
            ctx.send_dram_read(
                app.file_region.addr(w), nwords, "got_words", tag=w
            )
            self.next_issue_word = w + nwords
            self.inflight += 1

    @event
    def got_words(self, ctx, word_index, *words):
        self.inflight -= 1
        if not self.finishing:
            self.buffer[word_index] = words
            app = self.job(ctx).payload
            # consume buffered chunks strictly in byte order
            while not self.finishing:
                containing = None
                for w, data in self.buffer.items():
                    if w * 8 <= self.byte_pos < (w + len(data)) * 8:
                        containing = w
                        break
                if containing is None:
                    break
                self._consume(
                    ctx, containing, self.buffer.pop(containing), app
                )
            self._pump_reads(ctx)
        if self.finishing and self.inflight == 0:
            self.kv_map_return(ctx)
        else:
            ctx.yield_()

    def _consume(self, ctx, chunk_word, words, app) -> None:
        data = unpack_words(words)
        offset = self.byte_pos - chunk_word * 8
        data = data[offset:]
        limit = min(len(data), self.file_bytes - self.byte_pos)
        data = data[:limit]
        ctx.work(len(data) * app.tform_cycles_per_byte)
        consumed = 0
        for i, b in enumerate(data):
            pos = self.byte_pos + i
            if not self.started:
                if b == 0x0A:
                    if pos + 1 >= self.block_end:
                        # the next record starts at or past our boundary:
                        # it belongs to the next block
                        self.finishing = True
                        return
                    self.started = True  # records start after this newline
                consumed = i + 1
                continue
            if pos >= self.block_end and not self.transducer.mid_record:
                # past our block with no record in flight: done
                self.finishing = True
                return
            for rec in self.transducer.feed(bytes([b])):
                self._emit_record(ctx, rec)
            consumed = i + 1
        self.byte_pos += consumed
        if self.byte_pos >= self.file_bytes or (
            self.byte_pos >= self.block_end
            and self.started
            and not self.transducer.mid_record
        ):
            self.finishing = True
        elif not self.started and self.byte_pos >= self.block_end:
            # no record starts in this block (a record spans it entirely)
            self.finishing = True

    def _emit_record(self, ctx, rec: Record) -> None:
        ctx.work(4)
        words = rec.to_words()
        if rec.kind == REC_EDGE:
            self.kv_emit(ctx, (words[1], words[2], "e"), *words[:6])
        else:
            self.kv_emit(ctx, (words[1], "v"), *words[:3])


class IngestReduceTask(ReduceTask):
    """Insert one parsed record into the Parallel Graph (with ack)."""

    def kv_reduce(self, ctx, key, kind, *fields):
        app = self.job(ctx).payload
        ack = ctx.self_evw("ack")
        if kind == REC_EDGE:
            src, dst, etype, ts = fields[:4]
            app.pga.insert_edge_from(ctx, src, dst, (etype, ts), cont=ack)
        else:
            vid, attr = fields[:2]
            app.pga.insert_vertex_from(ctx, vid, (attr,), cont=ack)
        ctx.yield_()

    @event
    def ack(self, ctx, ok):
        self.kv_reduce_return(ctx)


@dataclass
class IngestionResult:
    records: int
    elapsed_seconds: float
    stats: SimStats

    @property
    def records_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.records / self.elapsed_seconds

    @property
    def bytes_per_second(self) -> float:
        """64 bytes per record — Figure 10's terabytes/second axis."""
        return self.records_per_second * 64


class IngestionApp:
    """Host-side setup + driver for the ingestion workflow."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        records: Sequence[Record],
        block_words: int = DEFAULT_BLOCK_WORDS,
        mem_nodes: Optional[int] = None,
        file_block_size: int = 4096,
        tform_cycles_per_byte: float = TFORM_CYCLES_PER_BYTE,
        name: str = "ingest",
        adjacency: bool = False,
    ) -> None:
        if block_words < 8:
            raise ValueError("blocks must be at least 8 words")
        self.runtime = runtime
        self.records = list(records)
        self.block_words = block_words
        self.tform_cycles_per_byte = tform_cycles_per_byte
        csv = workload_csv(self.records)
        words = pack_text(csv)
        self.file_bytes = len(csv.encode())
        self.file_words = len(words)
        gm = runtime.gmem
        if mem_nodes is None:
            mem_nodes = 1 << (runtime.config.nodes.bit_length() - 1)
        self.file_region = gm.dram_malloc(
            self.file_words * 8, 0, mem_nodes, file_block_size,
            name=f"{name}_file",
        )
        self.file_region[:] = words
        self.pga = ParallelGraph(
            runtime, name=f"{name}_pga", adjacency=adjacency
        )
        n_blocks = -(-self.file_words // block_words)
        self.job = KVMSRJob(
            runtime,
            IngestMapTask,
            RangeInput(n_blocks),
            reduce_cls=IngestReduceTask,
            payload=self,
            name=name,
        )

    def run(self, max_events: Optional[int] = None) -> IngestionResult:
        rt = self.runtime
        self.job.launch(cont_tag="ingest_done")
        stats = rt.run(max_events=max_events)
        done = rt.host_messages("ingest_done")
        if not done:
            raise rt.sim.incomplete("ingestion did not complete")
        _tasks, emitted, _polls, _fv = done[-1].operands
        return IngestionResult(
            records=emitted,
            elapsed_seconds=rt.elapsed_seconds,
            stats=stats,
        )

    # -- host-side verification -------------------------------------------

    def expected_tables(self):
        """What the PGA should contain after ingestion (arrival order is
        nondeterministic, so duplicate keys may hold any contributor's
        payload; callers compare key sets and singleton values)."""
        vertices = {}
        edges = {}
        for r in self.records:
            if r.kind == REC_VERTEX:
                vertices.setdefault(r.fields[0], set()).add((r.fields[1], 0, 0))
            else:
                src, dst, etype, ts = r.fields
                edges.setdefault((src, dst), set()).add((etype, ts))
        return vertices, edges
