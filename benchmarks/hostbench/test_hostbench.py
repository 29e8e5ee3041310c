"""Checks on the benchmark itself.  Not part of the tier-1 suite; run with

    python -m pytest benchmarks/hostbench -q

(one ``--quick`` pass plus two single-workload runs, about 20 s).
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import child
import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RECORDER_OFF = ("pagerank", "bfs", "tc", "pagerank_batch", "pagerank_par2")


def _run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def quick_pass(tmp_path_factory):
    out = tmp_path_factory.mktemp("hostbench") / "quick.json"
    proc = _run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text()), out


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == [
        w.name for w in workloads.WORKLOADS]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])
    assert len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_metric_is_printed_by_name_with_its_unit(quick_pass):
    stdout, document, _ = quick_pass
    assert document["quick"] is True
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        pattern = (rf"(?<![\w.-]){re.escape(metric['name'])}\s+"
                   rf"{re.escape(metric['unit'])}\s")
        assert re.search(pattern, stdout), metric["name"]
    # the eight end-to-end metrics of the design, on every workload
    for name, result in document["workloads"].items():
        wanted = set(run.END_TO_END) - {"requests_per_s"}
        if name == "service_soak":
            wanted.add("requests_per_s")
        assert set(result["end_to_end"]) == wanted, name
        assert result["ops_failed"] == 0, result["failures"]
        for layer in layers.LAYERS:
            for key in ("self_s", "share", "calls"):
                assert f"{layer}.{key}" in result["per_layer"]
        assert result["per_layer"]["trace.overhead_x"]["value"] > 1.0


def test_zero_predictions_hold(quick_pass):
    _, document, _ = quick_pass
    per_layer = {name: result["per_layer"]
                 for name, result in document["workloads"].items()}
    for name in ("pagerank", "bfs", "tc"):
        assert per_layer[name]["udweave.ir.calls"]["value"] == 0
    assert per_layer["pagerank_batch"]["udweave.ir.calls"]["value"] > 0
    for name in RECORDER_OFF:
        assert per_layer[name]["observe.calls"]["value"] == 0
    assert per_layer["service_soak"]["observe.calls"]["value"] > 0
    for name, values in per_layer.items():
        has = any(k.startswith("machine.parallel.") and
                  not k.endswith((".self_s", ".share", ".calls"))
                  for k in values)
        assert has == (name == "pagerank_par2"), name
    assert "machine.parallel.speedup_vs_seq" in per_layer["pagerank_par2"]
    assert "udweave.ir.speedup_vs_interp" in per_layer["pagerank_batch"]


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_single_workload_result_line(trace, key):
    proc = _run("--workload", "pagerank_batch", "--seed", "3", "--quick",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}


def test_layer_table_covers_every_package():
    assert layers.uncovered_packages(workloads.SRC / "repro") == []
    assert set(layers.PACKAGE_LAYER.values()) <= set(layers.LAYERS)
    assert set(layers.FILE_LAYER.values()) <= set(layers.LAYERS)
    for rel in layers.FILE_LAYER:
        assert (workloads.SRC / "repro" / rel).is_file(), rel


def test_folded_self_times_sum_to_the_profile_total():
    sample = child.run_repeat(workloads.BY_NAME["service_soak"], 7,
                              quick=True, profile=True)
    folded = sum(row["self_s"] for row in sample["layers"].values())
    assert folded == pytest.approx(sample["profile_total_s"], rel=0.01)
    assert sample["layers"]["other"]["share"] < 0.05


def test_wrong_oracle_counts_as_failed_operations():
    sample = child.run_repeat(workloads.BY_NAME["tc"], 7, quick=True,
                              oracle=lambda w, inputs, graph: -1)
    assert sample["checks"] == {"oracle": False, "quiesced": True}
    checks = run.Checks()
    run.check_repeats([sample], checks)
    assert checks.failed_share > 0
    assert checks.failures


def _dist(values, better="lower"):
    return {"unit": "s", "better": better, **run.distribution(values)}


def test_compare_verdicts():
    def verdict(a, b, bound=0.05):
        return run.verdict(a, b, bound)

    steady = _dist([10.0, 10.1, 10.05])
    assert verdict(steady, _dist([10.2, 10.3, 10.25])) == "within bound"
    assert verdict(steady, _dist([11.0, 11.1, 11.2])) == "worse"
    assert verdict(steady, _dist([9.0, 9.1, 9.05])) == "better"
    # spread wider than the bound and the runs overlap: no verdict
    noisy = _dist([9.0, 10.0, 12.0])
    assert verdict(noisy, _dist([9.5, 11.0, 12.5])) == "unresolved"
    assert verdict(noisy, _dist([13.0, 14.0, 15.0])) == "worse"
    # higher-is-better metrics flip the direction
    rate = _dist([100.0, 101.0, 102.0], better="higher")
    assert verdict(rate, _dist([80.0, 81.0, 82.0], better="higher")) == "worse"
    noisy_rate = _dist([80.0, 100.0, 120.0], better="higher")
    assert verdict(noisy_rate, _dist([90.0, 110.0, 130.0],
                                     better="higher")) == "unresolved"
    assert verdict(noisy_rate, _dist([130.0, 150.0, 170.0],
                                     better="higher")) == "better"
    assert verdict(noisy_rate, _dist([40.0, 50.0, 70.0],
                                     better="higher")) == "worse"
    # exact metrics (bound 0) tolerate nothing
    exact = _dist([341541.8])
    assert verdict(exact, _dist([341541.8]), bound=0.0) == "within bound"
    assert verdict(exact, _dist([341541.9]), bound=0.0) == "worse"


def test_single_run_reports_the_less_disturbed_middle_repeat():
    assert run.undisturbed_median([6.1, 9.4], "lower") == 6.1
    assert run.undisturbed_median([90e3, 60e3], "higher") == 90e3
    assert run.undisturbed_median([6.1, 9.4, 6.3], "lower") == 6.3


def test_compare_refuses_quick_runs(quick_pass):
    _, _, path = quick_pass
    proc = _run("compare", str(path), str(path))
    assert proc.returncode == 2
    assert "refused" in proc.stdout
