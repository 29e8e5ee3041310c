#!/usr/bin/env python3
"""Quickstart: build a machine, write a KVMSR program, run it.

This walks the three-dimension decomposition of Figure 1 on a word-count
style job:

1. *parallelism*: a kv_map task per document, a kv_reduce task per word;
2. *computation binding*: Block for maps (default), Hash for reduces
   (default) — then the same program re-bound with PBMW, no logic changes;
3. *data placement*: results drained to a DRAMmalloc'd region whose layout
   is one call-site constant.

Run:  python examples/quickstart.py
"""

from repro.kvmsr import (
    CombiningCache,
    KVMSRJob,
    ListInput,
    MapTask,
    PBMWBinding,
    ReduceTask,
    job_of,
)
from repro.machine import bench_machine
from repro.udweave import UpDownRuntime

DOCS = [
    ("doc0", ("the quick brown fox jumps over the lazy dog".split(),)),
    ("doc1", ("the fox and the hound".split(),)),
    ("doc2", ("quick quick slow".split(),)),
    ("doc3", ("dog eat dog world".split(),)),
]

cache = CombiningCache("wordcount")


class CountMap(MapTask):
    """kv_map: one task per document; one emit per word (edge-level
    parallelism, exactly like PageRank's per-edge emits)."""

    def kv_map(self, ctx, doc_id, words):
        for word in words:
            ctx.work(3)  # tokenize cost
            self.kv_emit(ctx, word, 1)
        self.kv_map_return(ctx)


class CountReduce(ReduceTask):
    """kv_reduce: all updates for a word land on its owner lane; the
    combining cache gives a race-free fetch&add in scratchpad."""

    def kv_reduce(self, ctx, word, n):
        cache.add(ctx, word, n)
        self.kv_reduce_return(ctx)

    def kv_flush(self, ctx):
        results = job_of(ctx, self._job_id).payload
        for word in cache.resident_keys(ctx):
            results[word] = results.get(word, 0) + cache.get(ctx, word)
        cache.flush(ctx, lambda c, k, v: None)
        self.kv_flush_return(ctx)


def run(binding=None, label="Block (default)"):
    runtime = UpDownRuntime(bench_machine(nodes=4))
    results = {}
    job = KVMSRJob(
        runtime,
        CountMap,
        ListInput(DOCS),
        reduce_cls=CountReduce,
        map_binding=binding,
        payload=results,
    )
    _, stats = job.run("wc_done", "word count")
    print(f"--- computation binding: {label}")
    print(f"    counts: {dict(sorted(results.items()))}")
    print(f"    simulated time: {runtime.elapsed_seconds * 1e6:.2f} us, "
          f"{stats.events_executed} events, "
          f"{stats.messages_sent} messages")
    return results


if __name__ == "__main__":
    block = run()
    # same program, different computation binding — dimension 2 of Fig. 1
    pbmw = run(PBMWBinding(initial_fraction=0.5, chunk_size=1), "PBMW")
    assert block == pbmw, "binding must never change the answer"
    print("same answer under both bindings — parallelism is independent "
          "of computation binding (Figure 1)")
