"""Statistics aggregation."""

import pytest

from repro.machine.stats import SimStats


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
