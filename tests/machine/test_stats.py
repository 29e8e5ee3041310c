"""Statistics aggregation."""

import dataclasses

import pytest

from repro.machine.stats import HOST_SPLIT_KEYS, SimStats


class TestSimStats:
    def test_utilization(self):
        s = SimStats()
        s.final_tick = 100.0
        s.busy_cycles_by_lane[0] = 50.0
        s.busy_cycles_by_lane[1] = 100.0
        assert s.utilization(total_lanes=2) == pytest.approx(0.75)

    def test_utilization_degenerate_cases(self):
        s = SimStats()
        assert s.utilization(4) == 0.0
        s.final_tick = 10.0
        assert s.utilization(0) == 0.0

    def test_active_lanes(self):
        s = SimStats()
        s.busy_cycles_by_lane[0] = 1.0
        s.busy_cycles_by_lane[1] = 0.0
        s.busy_cycles_by_lane[2] = 2.0
        assert s.active_lanes() == 2

    def test_load_imbalance(self):
        s = SimStats()
        s.busy_cycles_by_lane.update({0: 10.0, 1: 10.0, 2: 40.0})
        assert s.load_imbalance() == pytest.approx(2.0)

    def test_load_imbalance_perfect(self):
        s = SimStats()
        s.busy_cycles_by_lane.update({0: 5.0, 1: 5.0})
        assert s.load_imbalance() == pytest.approx(1.0)

    def test_load_imbalance_empty(self):
        assert SimStats().load_imbalance() == 1.0

    def test_summary_mentions_counts(self):
        s = SimStats()
        s.events_executed = 7
        s.messages_sent = 3
        text = s.summary()
        assert "events=7" in text and "msgs=3" in text

    def test_scalar_snapshot_covers_counters_not_histograms(self):
        s = SimStats()
        s.events_executed = 7
        s.messages_host_injected = 2
        s.final_tick = 12.5
        snap = s.scalar_snapshot()
        assert snap["events_executed"] == 7
        assert snap["messages_host_injected"] == 2
        assert snap["final_tick"] == 12.5
        # per-lane dicts are not part of the scalar snapshot
        assert "busy_cycles_by_lane" not in snap

    def test_every_numeric_field_is_fingerprinted(self):
        """A counter added to SimStats reaches ``model_snapshot()`` (the
        fingerprint) or is a declared host-split key; only the last
        drain's end state stays out."""
        drain_state = {"quiesced", "pending_threads"}
        snap = SimStats().model_snapshot()
        numeric = [
            f.name
            for f in dataclasses.fields(SimStats)
            if f.type in ("int", "float", int, float)
            and f.name not in drain_state
        ]
        assert {"messages_sent", "faults_stall_cycles", "final_tick"} <= set(
            numeric
        )
        for name in numeric:
            assert name in snap or name in HOST_SPLIT_KEYS, name

    def test_scalar_snapshot_keeps_field_order(self):
        """The perflog and Chrome-trace exports write the snapshot in
        key order: field order, ``final_tick`` last."""
        keys = list(SimStats().scalar_snapshot())
        assert keys[0] == "messages_sent" and keys[-1] == "final_tick"
        order = [f.name for f in dataclasses.fields(SimStats)]
        assert keys == sorted(keys, key=order.index)
