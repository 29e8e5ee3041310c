"""One repeat of one workload, in a process of its own.

``run.py`` starts this file once per repeat so that every sample pays
the full set-up a user pays (interpreter start, imports, input
generation, machine and app construction) and no repeat inherits warm
caches or heap layout from the one before.  The result is printed as one
JSON object on the last line of standard output.

``run_repeat`` is also importable: the tests call it in-process with a
deliberately wrong oracle.
"""

from __future__ import annotations

import time

_ENTERED = time.time()  # the repeat's span starts before the imports

import argparse
import cProfile
import json
import pstats
import resource
from contextlib import contextmanager
from typing import Any, Dict, List

import layers
import workloads

#: SimStats counters reported per layer; read with ``getattr`` so a
#: counter a later refactor drops reads 0 instead of breaking the run.
COUNTERS = {
    "machine.events_executed": "events_executed",
    "machine.messages_sent": "messages_sent",
    "machine.messages_remote": "messages_remote",
    "machine.dram_reads": "dram_reads",
    "machine.dram_writes": "dram_writes",
    "machine.threads_created": "threads_created",
    "udweave.events_interpreted": "events_interpreted",
    "udweave.ir.records_batched": "records_batched",
    "udweave.ir.batches_executed": "batches_executed",
}

#: numeric ``Simulator.parallel_metrics()`` keys reported per layer.
PARALLEL_KEYS = (
    "windows", "boundary_bytes", "boundary_records", "ring_overflows",
    "spill_phases", "barrier_wait_s",
)

PHASES = ("import", "graph_gen", "runtime_build", "app_build", "drain",
          "oracle", "shutdown")


class Spans:
    """Phase spans kept in memory: name, start, end, parent, run id."""

    def __init__(self, run_id: str, start: float) -> None:
        self.run_id = run_id
        self.start = start
        self.rows: List[Dict[str, Any]] = []

    @contextmanager
    def __call__(self, name: str):
        start = time.time()
        try:
            yield
        finally:
            self.rows.append(dict(name=name, start=start, end=time.time(),
                                  parent="repeat", run=self.run_id))

    def close(self) -> List[Dict[str, Any]]:
        self.rows.append(dict(name="repeat", start=self.start,
                              end=time.time(), parent="workload",
                              run=self.run_id))
        return self.rows

    def seconds(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.rows
                   if r["name"] == name)


def _usage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def _cpu_seconds() -> float:
    """CPU of this process and of the children it has reaped (the
    figures of ``os.times()``, at microsecond instead of tick resolution)."""
    return sum(u.ru_utime + u.ru_stime for u in _usage())


def _peak_rss_mib() -> float:
    return max(u.ru_maxrss for u in _usage()) / 1024.0


def run_repeat(
    w: workloads.Workload,
    seed: int,
    quick: bool = False,
    profile: bool = False,
    run_id: str = "repeat",
    oracle=workloads.oracle_graph,
) -> Dict[str, Any]:
    """Set up, drain once, check; returns the sample as plain data.

    ``oracle`` is replaceable so the tests can prove a wrong answer is
    counted as a failed operation.
    """
    workloads.use_repo_sources()
    inputs = w.quick_inputs if quick else w.inputs
    spans = Spans(run_id, _ENTERED)
    service = w.kind == "service"

    with spans("import"):
        import numpy
        import repro.apps  # noqa: F401
        import repro.graph.generators  # noqa: F401
        import repro.harness  # noqa: F401
        import repro.service  # noqa: F401
        import repro.udweave  # noqa: F401

    rt = graph = None
    if service:
        with spans("graph_gen"):
            requests = workloads.service_requests(inputs, seed)

        def drain():
            return workloads.drain_service(inputs, requests)
    else:
        with spans("graph_gen"):
            graph = workloads.graph_inputs(inputs, seed)
        with spans("runtime_build"):
            rt = workloads.build_runtime(w, inputs)
        with spans("app_build"):
            app = workloads.build_app(w, rt, graph)

        def drain():
            return workloads.drain_graph(w, inputs, app)

    profiler = cProfile.Profile() if profile else None
    # CPU seconds since the process began, interpreter start included;
    # wall-clock set-up is in the phase spans (stolen time inflates it)
    setup_s = time.process_time()
    cpu0 = _cpu_seconds()
    try:
        with spans("drain"):
            t0 = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                # app.run / run_service hand back materialized arrays and
                # histograms, so the result is consumed inside the timing
                result = drain()
            finally:
                if profiler is not None:
                    profiler.disable()
            drain_wall_s = time.perf_counter() - t0
    finally:
        with spans("shutdown"):
            if rt is not None:
                rt.shutdown()
    run_cpu_s = _cpu_seconds() - cpu0
    # sampled before the oracle: repro.baselines (scipy) is the
    # benchmark's need, not part of what a run of the simulator costs
    peak_rss_mb = _peak_rss_mib()

    stats = result.stats
    events = getattr(stats, "events_executed", 0)
    sample: Dict[str, Any] = {
        "workload": w.name,
        "seed": seed,
        "run": run_id,
        "profiled": profile,
        "numpy": numpy.__version__,
        "metrics": {
            "events_per_s": events / drain_wall_s,
            "drain_wall_s": drain_wall_s,
            "run_cpu_s": run_cpu_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "sim_cycles": getattr(stats, "final_tick", 0.0),
        },
        "counts": {name: getattr(stats, attr, 0)
                   for name, attr in COUNTERS.items()},
    }

    with spans("oracle"):
        if service:
            status = result.status_counts
            failed = sum(status.get(k, 0)
                         for k in ("shed", "lost", "deadline_miss"))
            verdict_ok = result.verdict is not None and result.verdict.passed
            sample["checks"] = {"slo_verdict": bool(verdict_ok)}
            sample["ops_attempted"] = result.requests_total + 1
            sample["ops_failed"] = failed + (0 if verdict_ok else 1)
            sample["fingerprint"] = workloads.fingerprint_service(result)
            sample["metrics"]["requests_per_s"] = (
                result.requests_total / drain_wall_s)
            svc = {"service.requests": result.requests_total}
            for key in ("shed", "deadline_miss", "lost"):
                svc[f"service.{key}"] = status.get(key, 0)
            for cls, hist in sorted(result.latency_hist.items()):
                svc[f"service.p50_cycles.{cls}"] = hist.quantile_bound(0.5)
                svc[f"service.p99_cycles.{cls}"] = hist.quantile_bound(0.99)
                svc[f"service.samples.{cls}"] = hist.count
            sample["service"] = svc
        else:
            expected = oracle(w, inputs, graph)
            answer = workloads.answer_graph(w, result)
            checks = {
                "oracle": workloads.matches_oracle(w, answer, expected),
                "quiesced": bool(getattr(stats, "quiesced", False)),
            }
            sample["checks"] = checks
            sample["ops_attempted"] = len(checks)
            sample["ops_failed"] = sum(not ok for ok in checks.values())
            sample["fingerprint"] = workloads.fingerprint_graph(w, result)

    hub = rt.sim.parallel_metrics() if rt is not None else None
    if hub is not None:
        sample["parallel"] = {f"machine.parallel.{k}": hub.get(k, 0)
                              for k in PARALLEL_KEYS}
    if profiler is not None:
        stats_table = pstats.Stats(profiler).stats
        sample["layers"] = layers.fold(stats_table)
        sample["profile_total_s"] = sum(
            row[2] for row in stats_table.values())
    rows = spans.close()
    sample["phases"] = {f"phase.{name}_s": spans.seconds(name)
                        for name in PHASES}
    sample["spans"] = rows
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-id", default="repeat")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    sample = run_repeat(
        workloads.BY_NAME[args.workload], args.seed, quick=args.quick,
        profile=args.profile, run_id=args.run_id,
    )
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
