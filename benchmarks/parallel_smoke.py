"""CI smoke: conservative parallel execution is bit-exact (and fast).

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

With ``--min-speedup`` it also asserts the wall-clock ratio
``sequential / parallel`` — the perf contract of the shared-memory
boundary transport.  Only ask for a speedup on a host with at least as
many cores as shards (the multi-core CI leg does); on a starved host the
flag fails fast with a clear message instead of a flaky ratio.

Either way the run dumps the coordinator's transport metrics (boundary
bytes, frames and records per frame shipped, barrier wait)
to ``PARALLEL_hub_metrics.json`` next to the repo root, so a failing CI
leg uploads exactly the numbers needed to diagnose it.

Usage::

    PYTHONPATH=src python benchmarks/parallel_smoke.py [--shards 2]
        [--min-speedup 1.5] [--metrics-out PARALLEL_hub_metrics.json]
"""

from __future__ import annotations

import argparse
import json
import os
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
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless sequential/parallel wall-clock >= this ratio "
        "(only meaningful with >= --shards physical cores)",
    )
    parser.add_argument(
        "--metrics-out",
        default="PARALLEL_hub_metrics.json",
        help="where to dump the parallel coordinator's transport metrics",
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    if args.min_speedup is not None and cores < args.shards:
        print(
            f"FAIL: --min-speedup {args.min_speedup} requested but this "
            f"host has {cores} core(s) for {args.shards} shards; run the "
            f"speedup assertion on a multi-core runner"
        )
        return 1

    seq = run_once(shards=1, parallel=False)
    par = run_once(shards=args.shards, parallel=True)
    speedup = (
        seq["seconds"] / par["seconds"] if par["seconds"] > 0 else float("inf")
    )

    hub = par["hub_metrics"] or {}
    frames = hub.get("boundary_frames", 0)
    records_per_frame = hub.get("boundary_records", 0) / frames if frames else 0.0
    report = {
        "shards": args.shards,
        "cores": cores,
        "sequential_seconds": round(seq["seconds"], 3),
        "parallel_seconds": round(par["seconds"], 3),
        "speedup": round(speedup, 3),
        "events_executed": seq["fingerprint"]["events_executed"],
        "records_per_frame": round(records_per_frame, 1),
        "hub": par["hub_metrics"],
    }
    with open(args.metrics_out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

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
    if args.min_speedup is not None and speedup < args.min_speedup:
        failures.append(
            f"wall-clock speedup {speedup:.2f}x below the required "
            f"{args.min_speedup:.2f}x (sequential {seq['seconds']:.2f}s, "
            f"parallel {par['seconds']:.2f}s on {cores} cores; hub "
            f"metrics in {args.metrics_out})"
        )
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
