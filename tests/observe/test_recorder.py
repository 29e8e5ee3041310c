"""Flight recorder unit behavior: tiers, hooks, caps, phase spans."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.observe import (
    FlightRecorder,
    LogHistogram,
    RecorderError,
    TIERS,
    make_recorder,
)


class TestLogHistogram:
    def test_exact_moments(self):
        h = LogHistogram()
        for v in (1.0, 3.0, 100.0):
            h.add(v)
        assert h.count == 3
        assert h.total == pytest.approx(104.0)
        assert h.mean == pytest.approx(104.0 / 3)
        assert h.max == 100.0
        assert len(h) == 3

    def test_power_of_two_buckets(self):
        h = LogHistogram()
        h.add(0.5)   # bucket 0 (< 1)
        h.add(1.0)   # bucket 1: [1, 2)
        h.add(3.0)   # bucket 2: [2, 4)
        h.add(3.5)
        bounds = dict(h.rows())
        assert bounds[1.0] == 1
        assert bounds[2.0] == 1
        assert bounds[4.0] == 2

    def test_rows_ascending(self):
        h = LogHistogram()
        for v in (1000, 1, 30, 7, 250000):
            h.add(v)
        bounds = [b for b, _c in h.rows()]
        assert bounds == sorted(bounds)

    def test_negative_clamped(self):
        h = LogHistogram()
        h.add(-5.0)
        assert h.total == 0.0
        assert h.count == 1

    def test_quantile_bound_monotone(self):
        h = LogHistogram()
        for v in range(1, 100):
            h.add(float(v))
        assert h.quantile_bound(0.1) <= h.quantile_bound(0.9)
        assert h.quantile_bound(1.0) >= 64.0
        with pytest.raises(ValueError):
            h.quantile_bound(1.5)

    def test_empty(self):
        h = LogHistogram()
        assert h.mean == 0.0
        assert h.quantile_bound(0.5) == 0.0
        assert h.rows() == []

    def test_merge_of_nothing_is_empty(self):
        h = LogHistogram.merge([])
        assert (h.buckets, h.count, h.total, h.max) == ({}, 0, 0.0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            max_size=40,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=6),
    )
    def test_merge_of_a_partition_is_the_whole(self, samples, cuts):
        edges = [0, *sorted(min(c, len(samples)) for c in cuts), len(samples)]
        parts = []
        for lo, hi in zip(edges, edges[1:]):
            part = LogHistogram()
            for v in samples[lo:hi]:
                part.add(v)
            parts.append(part)
        whole = LogHistogram()
        for v in samples:
            whole.add(v)
        merged = LogHistogram.merge(parts)
        assert merged.buckets == whole.buckets
        assert merged.count == whole.count
        assert merged.max == whole.max
        total = 0.0
        for part in parts:
            total += part.total
        assert merged.total == total


class TestMakeRecorder:
    def test_off_specs(self):
        assert make_recorder(None) is None
        assert make_recorder(False) is None

    def test_true_is_full(self):
        rec = make_recorder(True)
        assert rec.tier == "full"

    def test_tier_names(self):
        for tier in TIERS:
            assert make_recorder(tier).tier == tier

    def test_passthrough(self):
        rec = FlightRecorder("phases")
        assert make_recorder(rec) is rec

    def test_bad_specs_rejected(self):
        with pytest.raises(RecorderError):
            make_recorder("verbose")
        with pytest.raises(RecorderError):
            make_recorder(3)


class TestTierGates:
    """Two gates: ``record_channels`` (channel and message-latency
    histograms) and ``record_lane_spans`` (lane spans and per-admission
    channel events); phase spans and faults record at every tier."""

    def test_phases_tier_gates(self):
        rec = FlightRecorder("phases")
        assert not rec.record_channels
        assert not rec.record_lane_spans
        rec.phase_begin("job", "map", 0.0)
        rec.phase_end("job", "map", 1.0)
        rec.fault("msg_drop", 1.0)
        assert rec.phase_spans == [("job", "map", 0.0, 1.0)]
        assert rec.fault_counts == {"msg_drop": 1}

    def test_histograms_tier_gates(self):
        rec = FlightRecorder("histograms")
        assert rec.record_channels
        assert not rec.record_lane_spans

    def test_full_tier_gates(self):
        rec = FlightRecorder("full")
        assert rec.record_channels and rec.record_lane_spans


class TestHooks:
    def test_lane_span_cap_counts_drops(self):
        rec = FlightRecorder("full", max_lane_spans=2)
        for i in range(5):
            rec.lane_span(0, float(i), float(i + 1), "x")
        assert len(rec.lane_spans) == 2
        assert rec.lane_spans_dropped == 3

    def test_channel_sample_accumulates(self):
        rec = FlightRecorder("histograms")
        rec.inj_sample(1, start=10.0, wait=4.0, occupancy=2.0, nbytes=64)
        rec.inj_sample(1, start=12.0, wait=0.0, occupancy=2.0, nbytes=64)
        ch = rec.inj_by_node[1]
        assert ch.wait_hist.count == 2
        assert ch.bytes == 128
        assert ch.wait_hist.mean == pytest.approx(2.0)
        assert ch.wait_hist.max == 4.0
        assert rec.inj_wait.count == 2
        # histograms tier keeps no per-admission event list
        assert rec.inj_events == []

    def test_full_tier_keeps_channel_events(self):
        rec = FlightRecorder("full", max_channel_events=1)
        rec.dram_sample(0, 0.0, 1.0, 2.0, 64)
        rec.dram_sample(0, 5.0, 0.0, 2.0, 64)
        assert rec.dram_events == [(0, 0.0, 1.0, 2.0, 64)]
        assert rec.channel_events_dropped == 1
        # accumulators never drop
        assert rec.dram_by_node[0].wait_hist.count == 2

    def test_message_taxonomy(self):
        rec = FlightRecorder("histograms")
        rec.message(1, "local", 100.0)
        rec.message(1, "remote", 1000.0)
        rec.message(0, "remote", 1200.0)
        rec.message(None, "host_injected", 30.0)
        assert rec.msg_latency["local"].count == 1
        assert rec.msg_latency["remote"].count == 2
        assert rec.msg_latency["host_injected"].count == 1
        assert rec.msg_latency["host_bound"].count == 0
        # each sample is stored once, under its source node (None: the
        # host); the machine-wide view is merged from those on read
        assert set(rec.msg_by_node) == {None, 0, 1}
        assert rec.msg_by_node[0]["remote"].total == 1200.0
        assert rec.msg_latency["remote"].total == 2200.0
        assert rec.msg_latency["remote"].max == 1200.0


class TestPhaseSpans:
    def test_begin_end(self):
        rec = FlightRecorder("phases")
        rec.phase_begin("job", "map", 10.0)
        rec.phase_end("job", "map", 50.0)
        assert rec.phase_spans == [("job", "map", 10.0, 50.0)]

    def test_end_without_begin_is_noop(self):
        rec = FlightRecorder("phases")
        rec.phase_end("job", "flush", 5.0)
        assert rec.phase_spans == []

    def test_reopen_closes_previous(self):
        """Relaunched jobs (one per PageRank iteration) yield one span
        per epoch, not a dangling open span."""
        rec = FlightRecorder("phases")
        rec.phase_begin("job", "map", 0.0)
        rec.phase_begin("job", "map", 100.0)
        rec.phase_end("job", "map", 150.0)
        assert rec.phase_spans == [
            ("job", "map", 0.0, 100.0),
            ("job", "map", 100.0, 150.0),
        ]

    def test_phases_of_and_names(self):
        rec = FlightRecorder("phases")
        rec.phase_begin("a", "map", 0.0)
        rec.phase_end("a", "map", 10.0)
        rec.phase_begin("b", "flush", 20.0)
        rec.phase_end("b", "flush", 30.0)
        assert rec.phases_of("a") == [("map", 0.0, 10.0)]
        assert rec.phase_names() == ["flush", "map"]

    def test_marks(self):
        rec = FlightRecorder("phases")
        rec.mark("quiescence_poll", 42.0, "job")
        rec.mark("anon", 50.0)
        assert rec.marks == [
            ("quiescence_poll", "job", 42.0),
            ("anon", None, 50.0),
        ]
