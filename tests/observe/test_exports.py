"""Recorded runs and their exporters: parity, Chrome trace, perflog."""

import json
from collections import Counter

import pytest

from repro.apps import PageRankApp
from repro.harness import (
    occupancy_report,
    run_pagerank,
    write_chrome_trace,
    write_perflog_tsv,
)
from repro.machine import bench_machine
from repro.observe import chrome_trace, format_perflog, make_recorder
from repro.observe.trace import PID_DRAM, PID_KVMSR, PID_LANES, PID_NET
from repro.udweave import UpDownRuntime


@pytest.fixture(scope="module")
def recorded_run(rmat_s6):
    """One seeded PageRank with the full recorder tier."""
    rt = UpDownRuntime(bench_machine(nodes=4), recorder=make_recorder("full"))
    PageRankApp(rt, rmat_s6, max_degree=16, block_size=4096).run(
        max_events=10_000_000
    )
    return rt


class TestRecordedRun:
    def test_lane_spans_cover_all_events(self, recorded_run):
        rec = recorded_run.recorder
        stats = recorded_run.sim.stats
        assert len(rec.lane_spans) + rec.lane_spans_dropped == (
            stats.events_executed
        )
        for _nwid, start, end, _label in rec.lane_spans[:100]:
            assert end >= start >= 0.0

    def test_kvmsr_phases_present(self, recorded_run):
        rec = recorded_run.recorder
        assert {"map", "flush", "job"} <= set(rec.phase_names())
        # spans are closed and well-ordered
        for _job, _phase, start, end in rec.phase_spans:
            assert end >= start

    def test_channel_telemetry_present(self, recorded_run):
        rec = recorded_run.recorder
        assert rec.inj_by_node and rec.dram_by_node
        assert rec.inj_wait.count > 0
        assert rec.dram_wait.count > 0

    def test_message_histograms_match_stats(self, recorded_run):
        """The latency histograms and the scalar taxonomy count the same
        messages — the recorder observes, it does not re-classify."""
        rec = recorded_run.recorder
        stats = recorded_run.sim.stats
        assert rec.msg_latency["local"].count == stats.messages_local
        assert rec.msg_latency["remote"].count == stats.messages_remote
        assert (
            rec.msg_latency["host_injected"].count
            == stats.messages_host_injected
        )
        assert (
            rec.msg_latency["host_bound"].count == stats.messages_host_bound
        )

    def test_recording_is_observation_only(self, rmat_s6):
        """A recorded run is bit-identical to an unrecorded one (the
        full tier's lane spans disarm batched dispatch, so the host-side
        split counters are the one thing allowed to move)."""
        results = {}
        for record in (None, "full"):
            rt = UpDownRuntime(
                bench_machine(nodes=4), recorder=make_recorder(record)
            )
            res = PageRankApp(
                rt, rmat_s6, max_degree=16, block_size=4096
            ).run(max_events=10_000_000)
            stats = rt.sim.stats
            assert (
                stats.records_batched + stats.events_interpreted
                == stats.events_executed
            )
            if record == "full":
                # one lane span per executed event: the span labels are
                # the per-label event counts
                labels = Counter(label for *_, label in rt.recorder.lane_spans)
                assert rt.recorder.lane_spans_dropped == 0
                assert sum(labels.values()) == stats.events_executed
            results[record] = (stats.model_snapshot(), list(res.ranks))
        assert results[None] == results["full"]

    def test_runner_attaches_recorder(self, rmat_s6):
        rec = run_pagerank(rmat_s6, nodes=2, max_degree=16, record="phases")
        assert rec.extra["recorder"].phase_spans
        plain = run_pagerank(rmat_s6, nodes=2, max_degree=16)
        assert "recorder" not in plain.extra


class TestChromeTrace:
    def test_roundtrip_has_all_tracks(self, recorded_run, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", recorded_run.sim)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        pids = {e["pid"] for e in events}
        assert {PID_LANES, PID_NET, PID_DRAM, PID_KVMSR} <= pids
        cats = {e.get("cat") for e in events}
        assert {"lane", "inj", "dram", "kvmsr"} <= cats
        assert data["otherData"]["scalars"]["events_executed"] > 0

    def test_timestamps_are_simulated_microseconds(self, recorded_run):
        sim = recorded_run.sim
        trace = chrome_trace(recorded_run.recorder, sim.config.clock_hz)
        spans = [e for e in trace["traceEvents"] if e.get("cat") == "lane"]
        last_end = max(e["ts"] + e["dur"] for e in spans)
        assert last_end <= sim.stats.final_tick * 1e6 / sim.config.clock_hz

    def test_phase_track_names_jobs(self, recorded_run):
        trace = chrome_trace(recorded_run.recorder, 2e9)
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        jobs = {j for j, _p, _s, _e in recorded_run.recorder.phase_spans}
        assert jobs <= thread_names

    def test_quiescence_polls_are_instants(self, recorded_run):
        trace = chrome_trace(recorded_run.recorder, 2e9)
        instants = [
            e for e in trace["traceEvents"]
            if e["ph"] == "i" and e["name"] == "quiescence_poll"
        ]
        assert instants


class TestPerflog:
    def test_tsv_shape_and_kinds(self, recorded_run, tmp_path):
        path = write_perflog_tsv(tmp_path / "p.tsv", recorded_run.sim)
        lines = path.read_text().splitlines()
        assert lines[0] == "kind\tname\tfield\tvalue"
        rows = [ln.split("\t") for ln in lines[1:]]
        assert all(len(r) == 4 for r in rows)
        kinds = {r[0] for r in rows}
        assert {"scalar", "lane", "channel", "msg", "phase", "hist"} <= kinds

    def test_scalars_survive_without_recorder(self):
        text = format_perflog(None, scalars={"events_executed": 7})
        assert "scalar\tevents_executed\tvalue\t7" in text


class TestOccupancyReport:
    def test_report_from_recorder(self, recorded_run):
        text = occupancy_report(recorded_run.sim)
        assert "injection channel" in text
        assert "dram channel" in text
        assert "%" in text

    def test_per_node_queue_wait_percentiles(self, recorded_run):
        text = occupancy_report(recorded_run.sim)
        # per-node columns plus the aggregate summary line
        assert "wait_p50" in text and "wait_p99" in text
        assert "p50=" in text and "p99=" in text
        # the p99 bound is a power-of-two bucket edge at least the p50's
        rec = recorded_run.sim.recorder
        for ch in rec.inj_by_node.values():
            if ch.wait_hist.count == 0:
                continue
            p50 = ch.wait_hist.quantile_bound(0.5)
            p99 = ch.wait_hist.quantile_bound(0.99)
            assert p99 >= p50

    def test_unavailable_without_channel_tier(self, rmat_s6):
        rt = UpDownRuntime(
            bench_machine(nodes=2), recorder=make_recorder("phases")
        )
        assert "record='histograms'" in occupancy_report(rt.sim)
        rt_off = UpDownRuntime(bench_machine(nodes=2))
        assert "unavailable" in occupancy_report(rt_off.sim)
