"""CI smoke: conservative parallel execution is bit-exact.

Runs one fixed seeded PageRank workload twice — sequential, then sharded
across forked worker processes — and asserts the model fingerprint
(``SimStats.model_snapshot()``: every always-on counter, including
``final_tick``, except the host-side split counters, which must instead
satisfy ``records_batched + events_interpreted == events_executed`` on
both sides — the sequential drain parks records, forked workers
interpret them), the host mailbox, and the functional output are
identical.  This is the cheap end-to-end
version of ``tests/integration/test_parallel_parity.py`` that CI runs on
every push: if the conservative protocol ever drifts from the sequential
drain, this exits non-zero before a human has to diff goldens.

The closing line reports both wall-clock times and the coordinator's
transport metrics for the log; it gates nothing.  Whether forked workers
pay is hostbench's question (the ``pagerank`` / ``pagerank_par2`` twin
runs seconds of drain; this workload is 0.2 s, where fork time
dominates).

Usage::

    PYTHONPATH=src python benchmarks/parallel_smoke.py [--shards 2]
"""

from __future__ import annotations

import argparse
import time


def run_once(shards: int, parallel: bool):
    from repro.apps.pagerank import PageRankApp
    from repro.graph.generators import rmat
    from repro.harness.runner import BENCH_BLOCK_SIZE, bench_config
    from repro.udweave import UpDownRuntime

    graph = rmat(9, seed=7)
    rt = UpDownRuntime(bench_config(4), shards=shards, parallel=parallel)
    app = PageRankApp(rt, graph, block_size=BENCH_BLOCK_SIZE)
    t0 = time.perf_counter()
    try:
        res = app.run(iterations=2)
    finally:
        rt.shutdown()
    seconds = time.perf_counter() - t0
    mailbox = [(t, rec.label, rec.operands) for t, rec in rt.sim.host_inbox]
    stats = rt.sim.stats
    return {
        "fingerprint": stats.model_snapshot(),
        "conserved": stats.records_batched + stats.events_interpreted,
        "mailbox": mailbox,
        "ranks": list(res.ranks),
        "seconds": seconds,
        "hub_metrics": rt.sim.parallel_metrics(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards", type=int, default=2, help="shard count for the parallel run"
    )
    args = parser.parse_args(argv)

    seq = run_once(shards=1, parallel=False)
    par = run_once(shards=args.shards, parallel=True)
    speedup = (
        seq["seconds"] / par["seconds"] if par["seconds"] > 0 else float("inf")
    )

    hub = par["hub_metrics"] or {}
    frames = hub.get("boundary_frames", 0)
    records_per_frame = hub.get("boundary_records", 0) / frames if frames else 0.0
    failures = []
    if par["fingerprint"] != seq["fingerprint"]:
        diff = {
            k: (seq["fingerprint"][k], par["fingerprint"][k])
            for k in seq["fingerprint"]
            if seq["fingerprint"][k] != par["fingerprint"].get(k)
        }
        failures.append(f"model fingerprint diverged: {diff}")
    for name, run in (("sequential", seq), ("parallel", par)):
        executed = run["fingerprint"]["events_executed"]
        if run["conserved"] != executed:
            failures.append(
                f"{name}: record conservation broken — records_batched + "
                f"events_interpreted = {run['conserved']} vs "
                f"events_executed = {executed}"
            )
    if par["mailbox"] != seq["mailbox"]:
        failures.append(
            f"host mailbox diverged ({len(seq['mailbox'])} sequential "
            f"entries vs {len(par['mailbox'])} parallel)"
        )
    if par["ranks"] != seq["ranks"]:
        failures.append("functional output (ranks) diverged")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    fp = seq["fingerprint"]
    print(
        f"parallel smoke OK: {args.shards} forked shards bit-identical to "
        f"sequential ({fp['events_executed']:,} events, "
        f"final_tick={fp['final_tick']}); "
        f"sequential {seq['seconds']:.2f}s, parallel {par['seconds']:.2f}s "
        f"({speedup:.2f}x, {hub.get('windows', 0)} windows, "
        f"{hub.get('boundary_bytes', 0):,} boundary bytes by ring in "
        f"{frames:,} frames of {records_per_frame:.1f} records)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
