"""CI smoke: the default (batched) drain is bit-exact against the interpreter.

Runs one fixed seeded PageRank and one BFS four ways each — the default
configuration and the ``batch_dispatch=False`` interpreter reference,
under a sequential and a sharded drain — and asserts that the model
fingerprint (``SimStats.model_snapshot()``: every always-on scalar
counter except the host-side split counters), the host mailbox, and the
functional output are identical.  Batching replaces N interpreter
passes over same-label reduce records with one array pass; each record
still pays its own Table-2 lane cost, injection occupancy, and
float-accumulation order, so any drift here is a correctness bug, not a
tuning artifact.  The split counters must also satisfy record
conservation: ``records_batched + events_interpreted ==
events_executed``.

Both apps must actually batch in the sequential default (PageRank's
combining-cache reduce; BFS's "already visited" arm behind the
write-once guard).  Sharded drains disarm the parking gate, so the
``--shards`` runs double as proof that the default is inert wherever
the batch path cannot prove itself safe.

Usage::

    PYTHONPATH=src python benchmarks/batch_smoke.py [--shards 2]
"""

from __future__ import annotations

import argparse
import time


def run_once(app_name: str, reference: bool = False, shards: int = 1):
    from repro.apps import BFSApp, PageRankApp
    from repro.graph.generators import rmat
    from repro.harness.runner import BENCH_BLOCK_SIZE, bench_config
    from repro.machine.stats import HOST_SPLIT_KEYS
    from repro.udweave import UpDownRuntime

    graph = rmat(9, seed=7)
    # the default configuration is the subject; the reference is the
    # interpret-everything machine
    overrides = {"batch_dispatch": False} if reference else {}
    rt = UpDownRuntime(bench_config(4, **overrides), shards=shards)
    t0 = time.perf_counter()
    try:
        if app_name == "pagerank":
            app = PageRankApp(rt, graph, block_size=BENCH_BLOCK_SIZE)
            result = [list(app.run(iterations=2).ranks)]
        else:
            res = BFSApp(rt, graph, block_size=BENCH_BLOCK_SIZE).run(root=0)
            result = [list(res.distances), list(res.parents)]
    finally:
        rt.shutdown()
    seconds = time.perf_counter() - t0
    stats = rt.sim.stats
    snapshot = stats.scalar_snapshot()
    return {
        "fingerprint": stats.model_snapshot(),
        "batch": {k: snapshot[k] for k in HOST_SPLIT_KEYS},
        "events_executed": snapshot["events_executed"],
        "mailbox": [
            (t, rec.label, rec.operands) for t, rec in rt.sim.host_inbox
        ],
        "result": result,
        "seconds": seconds,
    }


def check_app(app_name: str, shards: int, failures: list) -> str:
    ref = run_once(app_name, reference=True)
    default = run_once(app_name)
    ref_sharded = run_once(app_name, reference=True, shards=shards)
    default_sharded = run_once(app_name, shards=shards)

    runs = (
        ("reference", ref),
        ("default", default),
        (f"reference shards={shards}", ref_sharded),
        (f"default shards={shards}", default_sharded),
    )
    for name, run in runs:
        name = f"{app_name} {name}"
        if run["fingerprint"] != ref["fingerprint"]:
            diff = {
                k: (ref["fingerprint"][k], run["fingerprint"][k])
                for k in ref["fingerprint"]
                if ref["fingerprint"][k] != run["fingerprint"].get(k)
            }
            failures.append(f"{name}: model fingerprint diverged: {diff}")
        if run["mailbox"] != ref["mailbox"]:
            failures.append(f"{name}: host mailbox diverged")
        if run["result"] != ref["result"]:
            failures.append(f"{name}: functional output diverged")
        conserved = (
            run["batch"]["records_batched"]
            + run["batch"]["events_interpreted"]
        )
        if conserved != run["events_executed"]:
            failures.append(
                f"{name}: record conservation broken — "
                f"{run['batch']} vs events_executed="
                f"{run['events_executed']}"
            )
        fired = (
            run["batch"]["records_batched"] or run["batch"]["batches_executed"]
        )
        if run is default:
            if not run["batch"]["records_batched"]:
                failures.append(
                    f"{name}: batching never fired — the smoke lost its "
                    f"subject"
                )
        elif fired:
            failures.append(
                f"{name}: batch path fired where it must be disabled — "
                f"{run['batch']}"
            )
    fp = ref["fingerprint"]
    return (
        f"{app_name}: {fp['events_executed']:,} events, "
        f"final_tick={fp['final_tick']}, "
        f"{default['batch']['records_batched']:,} records batched into "
        f"{default['batch']['batches_executed']:,} batches "
        f"(reference {ref['seconds']:.2f}s, default "
        f"{default['seconds']:.2f}s)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard count for the batching-under-sharding runs",
    )
    args = parser.parse_args(argv)

    failures: list = []
    summaries = [
        check_app(app_name, args.shards, failures)
        for app_name in ("pagerank", "bfs")
    ]
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"batch smoke OK: default / batch_dispatch=False x shards "
        f"1/{args.shards} bit-identical; " + "; ".join(summaries)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
