"""hostbench: host performance of the simulator, end to end and per layer.

Three ways in::

    python3 benchmarks/hostbench/run.py                  # the whole pass
    python3 benchmarks/hostbench/run.py --workload tc --seed 7 \\
        --seconds 10 --trace 0                           # one run (driver)
    python3 benchmarks/hostbench/run.py compare A.json B.json

The whole pass runs the six workloads of ``workloads.py`` one after
another.  Every repeat is a fresh child process (``child.py``), one per
five seconds of ``--seconds`` (every drain is sized to last that long).
Each output is checked against its CPU oracle, against the first repeat's
fingerprint and against its twin workload's; then one traced repeat per
workload (cProfile around the drain only) gives the per-layer numbers.
Nothing here claims a gain: this defines the measurement later changes
are judged with.  README.md has the definitions.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers
import workloads
from child import COUNTERS, PARALLEL_KEYS, PHASES
from workloads import BY_NAME, ROOT, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

#: a repeat that has not finished by then is killed with its workers
CHILD_TIMEOUT_S = 150
#: every workload is sized to drain for at least this long, so
#: ``--seconds`` buys one repeat per floor
DRAIN_FLOOR_S = 5.0
#: ``--seconds`` of the whole pass when none is given: five repeats
WHOLE_PASS_SECONDS = 25.0
#: calibration drift above this marks the whole run ``host_unstable``
MAX_CALIBRATION_DRIFT = 0.10

#: end-to-end metrics: unit, better, regression bound for ``compare``.
#: ``None`` means the workload's own ``timing_bound``; 0 means the values
#: must be equal.  BENCHMARK.json gates the three that hold still on a
#: host whose hypervisor steals time (README, "What is gated").
END_TO_END: Dict[str, Tuple[str, str, Optional[float]]] = {
    "events_per_s": ("events/s", "higher", None),
    "drain_wall_s": ("s", "lower", None),
    "run_cpu_s": ("s", "lower", None),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "sim_cycles": ("cycles", "lower", 0.0),
    "requests_per_s": ("requests/s", "higher", None),  # service_soak only
    "failed_share": ("fraction", "lower", 0.0),
}

#: repro.service.REQUEST_CLASSES, spelled out: this process imports
#: nothing heavy (see ``calibrate`` on why it must stay small)
SERVICE_CLASSES = ("update", "exact", "multihop", "partial")


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in layers.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
        units[f"{layer}.calls"] = "count"
    units.update({name: "count" for name in COUNTERS})
    units["udweave.ir.batched_ratio"] = "fraction"
    units["udweave.ir.speedup_vs_interp"] = "x"
    units["machine.parallel.speedup_vs_seq"] = "x"
    for key in PARALLEL_KEYS:
        units[f"machine.parallel.{key}"] = (
            "s" if key.endswith("_s") else
            "bytes" if key.endswith("_bytes") else "count")
    for key in ("requests", "shed", "deadline_miss", "lost"):
        units[f"service.{key}"] = "count"
    for cls in SERVICE_CLASSES:
        units[f"service.p50_cycles.{cls}"] = "cycles"
        units[f"service.p99_cycles.{cls}"] = "cycles"
        units[f"service.samples.{cls}"] = "count"
    units.update({f"phase.{name}_s": "s" for name in PHASES})
    units["trace.overhead_x"] = "x"
    units["host.calibration_ops_per_s"] = "ops/s"
    units["host.calibration_drift"] = "fraction"
    return units


#: every per-layer metric the traced pass can emit, with its unit
PER_LAYER_UNITS = _per_layer_units()


def bound_of(metric: str, w: Workload) -> float:
    bound = END_TO_END[metric][2]
    return w.timing_bound if bound is None else bound


# ----------------------------------------------------------------------
# Host facts and calibration
# ----------------------------------------------------------------------

def calibrate(segments: int = 5, ops: int = 200_000) -> float:
    """Ops/second of a fixed pure-Python ``heapq`` + ``dict`` loop: the
    best of a few short segments, so one burst of stolen time does not
    pass for a slower host.

    Printed so two result files can be told apart by host speed; never
    used to rescale a measurement.  The working set is bounded on
    purpose: a child's ``ru_maxrss`` starts from its parent's peak, so
    this process must stay smaller than any repeat it launches.
    """
    best = 0.0
    for _ in range(segments):
        heap: List[Tuple[int, int]] = []
        seen: Dict[int, int] = {}
        t0 = time.perf_counter()
        for i in range(ops):
            key = (i * 2654435761) & 0x3FF
            heapq.heappush(heap, (key, i))
            seen[key] = seen.get(key, 0) + 1
            if len(heap) > 512:
                heapq.heappop(heap)
        best = max(best, ops / (time.perf_counter() - t0))
    return best


def host_facts(sample: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sample["numpy"],  # as the repeats imported it
        "machine": platform.machine(),
        "system": platform.platform(),
    }


class Calibration:
    """The loop timed before the first and after the last workload."""

    def __init__(self) -> None:
        self.before = calibrate()

    def finish(self) -> Dict[str, Any]:
        after = calibrate()
        drift = abs(after / self.before - 1.0)
        return {
            "calibration_ops_per_s": self.before,
            "calibration_ops_per_s_after": after,
            "calibration_drift": drift,
            "host_unstable": drift > MAX_CALIBRATION_DRIFT,
        }


# ----------------------------------------------------------------------
# Running repeats
# ----------------------------------------------------------------------

class RepeatFailed(RuntimeError):
    """A child process crashed, hung, or printed no result."""


def stop_group(proc: subprocess.Popen) -> None:
    """End a repeat and everything it forked, and wait until all is gone.

    SIGTERM first: multiprocessing's resource tracker ignores it, so it
    outlives the shard workers just long enough to unlink the shared-
    memory rings they leave behind.  SIGKILL is for whatever remains.
    """
    try:
        os.killpg(proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            proc.poll()  # reap the leader so the group can empty
            os.killpg(proc.pid, 0)  # raises once nobody is left
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def spawn(w: Workload, seed: int, quick: bool, profile: bool,
          run_id: str) -> Dict[str, Any]:
    """One repeat in a fresh process; returns the sample it printed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", w.name,
           "--seed", str(seed), "--run-id", run_id]
    if quick:
        cmd.append("--quick")
    if profile:
        cmd.append("--profile")
    # own session: a hung repeat is killed together with any shard
    # workers it forked, so nothing outlives the benchmark
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=str(ROOT), start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:  # timeout, Ctrl-C, SIGTERM: then re-raised
        stop_group(proc)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RepeatFailed(
                f"{run_id}: no result in {CHILD_TIMEOUT_S} s") from None
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepeatFailed(f"{run_id}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def timed_repeats(w: Workload, seed: int, seconds: float,
                  quick: bool) -> List[Dict[str, Any]]:
    """Untraced repeats, strictly one after another: one per
    ``DRAIN_FLOOR_S`` of ``seconds``, at least one."""
    count = max(1, round(seconds / DRAIN_FLOOR_S))
    return [spawn(w, seed, quick, False, f"{w.name}/r{i}")
            for i in range(count)]


def distribution(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles, range and count.  With the default five (or
    fewer) samples there is no tail percentile to report, so none is."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values),
            "samples": values}


def undisturbed_median(values: List[float], better: str) -> float:
    """The median of a single run's repeats, taking the better of the two
    middle values when their count is even (the faster of two repeats).

    On a shared host disturbance only ever adds time — stolen cycles, a
    busy sibling thread — so the better middle value is the one closer to
    what the program costs; the mean of both is closer to what the
    neighbours were doing.
    """
    if better == "lower":
        return statistics.median_low(values)
    return statistics.median_high(values)


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def add_sample(self, sample: Dict[str, Any]) -> None:
        self.attempted += sample["ops_attempted"]
        self.failed += sample["ops_failed"]
        if sample["ops_failed"]:
            self.failures.append(
                f"{sample['run']}: {sample['ops_failed']} of "
                f"{sample['ops_attempted']} operations failed "
                f"{sample['checks']}")

    def equal(self, what: str, got: str, want: str) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.failures.append(f"{what}: {got[:12]} != {want[:12]}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted


def check_repeats(samples: List[Dict[str, Any]], checks: Checks) -> None:
    for sample in samples:
        checks.add_sample(sample)
    for sample in samples[1:]:
        checks.equal(f"{sample['run']} fingerprint vs first repeat",
                     sample["fingerprint"], samples[0]["fingerprint"])


def end_to_end(w: Workload, samples: List[Dict[str, Any]],
               checks: Checks) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    for name, (unit, better, _bound) in END_TO_END.items():
        if name == "failed_share":
            dist = distribution([checks.failed_share])
        elif name in samples[0]["metrics"]:
            dist = distribution([s["metrics"][name] for s in samples])
        else:
            continue
        out[name] = {"unit": unit, "better": better,
                     "bound": bound_of(name, w), **dist}
    return out


# ----------------------------------------------------------------------
# The traced pass
# ----------------------------------------------------------------------

def per_layer(w: Workload, untraced: List[Dict[str, Any]],
              traced: Dict[str, Any], base: Optional[Dict[str, Any]],
              checks: Checks) -> Dict[str, float]:
    """Per-layer numbers of one workload (only those that apply to it).

    ``untraced`` are this workload's timed repeats, ``traced`` its one
    profiled repeat, ``base`` an untraced repeat of its twin (if any).
    """
    checks.add_sample(traced)
    checks.equal(f"{w.name} traced fingerprint vs untraced",
                 traced["fingerprint"], untraced[0]["fingerprint"])
    drain_s = statistics.median(
        s["metrics"]["drain_wall_s"] for s in untraced)
    out: Dict[str, float] = {}
    for layer, row in traced["layers"].items():
        for key in ("self_s", "share", "calls"):
            out[f"{layer}.{key}"] = row[key]
    out.update(untraced[0]["counts"])
    out["trace.overhead_x"] = traced["metrics"]["drain_wall_s"] / drain_s
    for name in untraced[0]["phases"]:
        out[name] = statistics.median(s["phases"][name] for s in untraced)
    events = out["machine.events_executed"]
    batched = out["udweave.ir.records_batched"]
    out["udweave.ir.batched_ratio"] = batched / events if events else 0.0
    out.update(untraced[0].get("service", {}))
    out.update(untraced[0].get("parallel", {}))
    if "machine.parallel.barrier_wait_s" in out:
        out["machine.parallel.barrier_wait_s"] = statistics.median(
            s["parallel"]["machine.parallel.barrier_wait_s"]
            for s in untraced)
    if base is not None:
        checks.equal(f"{w.name} fingerprint vs twin {w.twin_of}",
                     untraced[0]["fingerprint"], base["fingerprint"])
        # base of both ratios: the twin's (pagerank's) drain_wall_s
        ratio = base["metrics"]["drain_wall_s"] / drain_s
        if w.runtime.get("parallel"):
            out["machine.parallel.speedup_vs_seq"] = ratio
        else:
            out["udweave.ir.speedup_vs_interp"] = ratio
    return out


# ----------------------------------------------------------------------
# Driver mode: one workload, one result line
# ----------------------------------------------------------------------

def skip_reason(w: Workload) -> Optional[str]:
    cores = os.cpu_count() or 1
    if cores < w.min_cores:
        return (f"skipped ({cores} core{'s' if cores != 1 else ''}): "
                f"{w.name} needs {w.min_cores} to mean anything")
    return None


def run_one(w: Workload, seed: int, seconds: float, trace: bool,
            quick: bool) -> int:
    """One run as the benchmark contract asks: set-up and drain repeated
    for ``seconds``, outputs checked, one JSON result on the last line.

    Untraced, the result holds the gated end-to-end metrics
    (``undisturbed_median`` over the repeats).  Traced, it holds every
    per-layer metric, from one untraced repeat, one profiled repeat and
    one repeat of the twin.
    """
    reason = skip_reason(w)
    if reason is not None:
        print(reason, file=sys.stderr)
        return 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.time()
    checks = Checks()
    if trace:
        calibration = Calibration()
        untraced = [spawn(w, seed, quick, False, f"{w.name}/r0")]
        check_repeats(untraced, checks)
        base = (spawn(BY_NAME[w.twin_of], seed, quick, False,
                      f"{w.twin_of}/twin") if w.twin_of else None)
        traced = spawn(w, seed, quick, True, f"{w.name}/traced")
        values = per_layer(w, untraced, traced, base, checks)
        samples = untraced + [traced] + ([base] if base else [])
        host = calibration.finish()
        values["host.calibration_ops_per_s"] = host["calibration_ops_per_s"]
        values["host.calibration_drift"] = host["calibration_drift"]
        values.update(untraced[0]["metrics"])
        values["failed_share"] = checks.failed_share
        # the contract wants every per-layer metric on every workload:
        # one that does not apply here (machine.parallel.* outside
        # pagerank_par2, service.* outside service_soak) reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        samples = timed_repeats(w, seed, seconds, quick)
        check_repeats(samples, checks)
        metrics = {m["name"]: {"value": undisturbed_median(
                                   [s["metrics"][m["name"]] for s in samples],
                                   m["better"]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    OUT_DIR.mkdir(exist_ok=True)
    spans = [row for s in samples for row in s["spans"]]
    spans.append(dict(name="workload", start=started, end=time.time(),
                      parent=None, run=w.name))
    (OUT_DIR / f"spans-{w.name}-seed{seed}-trace{int(trace)}.json"
     ).write_text(json.dumps(spans) + "\n")
    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


# ----------------------------------------------------------------------
# The whole pass
# ----------------------------------------------------------------------

def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def print_end_to_end(name: str, dists: Dict[str, Dict[str, Any]]) -> None:
    for metric, d in dists.items():
        print(f"{name:15} {metric:15} {d['unit']:11} "
              f"median {fmt(d['median']):>11}  q1 {fmt(d['q1']):>11}  "
              f"q3 {fmt(d['q3']):>11}  min {fmt(d['min']):>11}  "
              f"max {fmt(d['max']):>11}  n {d['n']}")


def print_per_layer(name: str, values: Dict[str, float]) -> None:
    def cell(metric: str) -> str:
        return (f"{metric} {PER_LAYER_UNITS[metric]} "
                f"{fmt(values[metric])}")

    rest = dict(values)
    for layer in layers.LAYERS:
        keys = [f"{layer}.{k}" for k in ("self_s", "share", "calls")]
        print(f"{name:15} " + "  ".join(cell(k) for k in keys))
        for k in keys:
            del rest[k]
    for metric in rest:
        print(f"{name:15} {cell(metric)}")


def whole_pass(seed: int, seconds: float, quick: bool, out: Path) -> int:
    started = time.time()
    calibration = Calibration()
    print(f"hostbench: seed {seed}, --seconds {seconds:g}"
          f"{', quick' if quick else ''}")
    print(f"host.calibration_ops_per_s ops/s {fmt(calibration.before)}")
    results: Dict[str, Dict[str, Any]] = {}
    repeats: Dict[str, List[Dict[str, Any]]] = {}
    spans: List[Dict[str, Any]] = []
    failed = False
    complete = True
    for w in WORKLOADS:
        reason = skip_reason(w)
        if reason is not None:
            print(f"{w.name:15} {reason}")
            results[w.name] = {"skipped": reason}
            complete = False
            continue
        t0 = time.time()
        checks = Checks()
        samples = repeats[w.name] = timed_repeats(w, seed, seconds, quick)
        check_repeats(samples, checks)
        base = repeats[w.twin_of][0] if w.twin_of else None
        traced = spawn(w, seed, quick, True, f"{w.name}/traced")
        values = per_layer(w, samples, traced, base, checks)
        dists = end_to_end(w, samples, checks)
        print_end_to_end(w.name, dists)
        print_per_layer(w.name, values)
        for failure in checks.failures:
            print(f"{w.name:15} FAILED {failure}")
        failed = failed or checks.failed > 0
        results[w.name] = {
            "why": w.why,
            "inputs": w.quick_inputs if quick else w.inputs,
            "end_to_end": dists,
            "per_layer": {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                          for k, v in values.items()},
            "fingerprint": samples[0]["fingerprint"],
            "ops_attempted": checks.attempted,
            "ops_failed": checks.failed,
            "failures": checks.failures,
        }
        for s in samples + [traced]:
            spans.extend(s["spans"])
        spans.append(dict(name="workload", start=t0, end=time.time(),
                          parent="pass", run=w.name))
    host = {**host_facts(repeats[WORKLOADS[0].name][0]),
            **calibration.finish()}
    print(f"host {json.dumps(host)}")
    print("host.calibration_ops_per_s ops/s "
          f"{fmt(host['calibration_ops_per_s_after'])} (after)")
    print(f"host.calibration_drift fraction {fmt(host['calibration_drift'])}")
    if host["host_unstable"]:
        print("host_unstable: true — calibration drifted more than "
              f"{MAX_CALIBRATION_DRIFT:.0%}; do not compare this run")
    spans.append(dict(name="pass", start=started, end=time.time(),
                      parent=None, run="pass"))
    document = {
        "hostbench": 1, "quick": quick, "seed": seed, "seconds": seconds,
        "complete": complete, "host": host, "workloads": results,
        "spans": spans,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}" + ("" if complete else " (incomplete run)"))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# compare A.json B.json
# ----------------------------------------------------------------------

def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float) -> str:
    """One (metric, workload) row: B judged against A.

    ``unresolved`` is the honest answer when the quartile spread of
    either side is wider than the bound and the two sets of runs overlap.
    """
    # badness: larger is worse, whichever way the metric points
    sign = 1.0 if a["better"] == "lower" else -1.0
    if a["median"] == b["median"]:
        return "within bound"
    if bound == 0 or a["median"] == 0:
        return "worse" if sign * (b["median"] - a["median"]) > 0 else "better"

    def spread(d):
        return (d["q3"] - d["q1"]) / abs(d["median"]) if d["median"] else 0.0

    def badness_range(d):
        ends = (sign * d["min"], sign * d["max"])
        return min(ends), max(ends)

    if max(spread(a), spread(b)) > bound:
        a_best, a_worst = badness_range(a)
        b_best, b_worst = badness_range(b)
        if b_best > a_worst:  # every run of B worse than every run of A
            return "worse"
        if b_worst < a_best:
            return "better"
        return "unresolved"
    worsening = sign * (b["median"] - a["median"]) / abs(a["median"])
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "within bound"


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    for doc, path in ((a, path_a), (b, path_b)):
        if doc.get("quick"):
            print(f"refused: {path} is a --quick run")
            return 2
    if a["seed"] != b["seed"]:
        print(f"refused: seeds differ ({a['seed']} vs {b['seed']})")
        return 2
    worse = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name, {})
        if "end_to_end" not in wa or "end_to_end" not in wb:
            print(f"{name:15} unresolved (skipped or missing in one file)")
            continue
        for metric, da in wa["end_to_end"].items():
            db = wb["end_to_end"][metric]
            # today's bounds, not the ones in force when A was written
            bound = bound_of(metric, BY_NAME[name])
            row = verdict(da, db, bound)
            worse += row == "worse"
            print(f"{name:15} {metric:15} {da['unit']:11} "
                  f"A {fmt(da['median']):>11}  B {fmt(db['median']):>11}  "
                  f"bound {bound:<5g} {row}")
    for doc, path in ((a, path_a), (b, path_b)):
        if doc["host"].get("host_unstable"):
            print(f"note: {path} was marked host_unstable")
    print(f"{worse} row(s) worse")
    return 1 if worse else 0


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="subcommand: compare A.json B.json")
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run only this workload and print one JSON "
                        "result line (the benchmark driver's mode)")
    parser.add_argument("--seed", type=int, default=7,
                        help="all inputs derive from it (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload: one repeat per "
                        f"{DRAIN_FLOOR_S:g} s (default {WHOLE_PASS_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer "
                        "metrics of a traced run instead")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, one repeat, under a minute; "
                        "marked quick and refused by compare")
    parser.add_argument("--out", type=Path, default=None,
                        help="whole pass: where the result file goes")
    args = parser.parse_args(argv)
    workloads.use_repo_sources()
    if args.quick:
        seconds = 0.0
    elif args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = WHOLE_PASS_SECONDS
    # a terminated benchmark still takes its repeat (and that repeat's
    # shard workers) down with it: SystemExit unwinds through spawn()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload:
            return run_one(BY_NAME[args.workload], args.seed, seconds,
                           bool(args.trace), args.quick)
        out = args.out or OUT_DIR / (
            "quick.json" if args.quick else f"run-seed{args.seed}.json")
        return whole_pass(args.seed, seconds, args.quick, out)
    except RepeatFailed as exc:
        print(f"hostbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
