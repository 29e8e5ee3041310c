"""FaultPlan: validation, content-keyed determinism, empirical rates."""

import math

import pytest

from repro.faults import FaultPlan, FaultPlanError
from repro.machine.network import (
    FAULT_DELAY,
    FAULT_DROP,
    FAULT_DUPLICATE,
    FAULT_NONE,
)


class TestValidation:
    @pytest.mark.parametrize("knob", ["drop_rate", "duplicate_rate",
                                      "delay_rate", "lane_stall_rate"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, knob, bad):
        with pytest.raises(FaultPlanError, match=knob):
            FaultPlan(**{knob: bad})

    def test_message_rates_must_sum_to_at_most_one(self):
        with pytest.raises(FaultPlanError, match="exceed"):
            FaultPlan(drop_rate=0.5, duplicate_rate=0.4, delay_rate=0.2)

    def test_negative_cycles_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(delay_cycles=-1.0)
        with pytest.raises(FaultPlanError):
            FaultPlan(lane_stall_cycles=-1.0)

    def test_dram_factor_range(self):
        with pytest.raises(FaultPlanError, match="bandwidth factor"):
            FaultPlan(dram_bandwidth_factors={0: 0.0})
        with pytest.raises(FaultPlanError, match="bandwidth factor"):
            FaultPlan(dram_bandwidth_factors={0: 1.5})
        FaultPlan(dram_bandwidth_factors={0: 0.25})  # ok

    @pytest.mark.parametrize("knob", ["delay_cycles", "lane_stall_cycles"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cycles_rejected(self, knob, bad):
        # a NaN/inf delay or stall would surface mid-drain as a
        # non-finite event time; reject it at construction instead
        with pytest.raises(FaultPlanError, match=knob):
            FaultPlan(**{knob: bad})

    def test_fail_stop_tick_non_negative(self):
        with pytest.raises(FaultPlanError, match="fail-stop"):
            FaultPlan(fail_stop={0: -5.0})

    def test_fail_stop_tick_nan_rejected(self):
        # NaN compares false against every tick: the node would never fail
        with pytest.raises(FaultPlanError, match="fail-stop"):
            FaultPlan(fail_stop={0: math.nan})

    def test_fail_stop_tick_inf_means_never(self):
        assert FaultPlan(fail_stop={1: math.inf}).dead_ticks(2) == [
            math.inf, math.inf
        ]

    def test_out_of_range_nodes_caught_at_table_build(self):
        with pytest.raises(FaultPlanError, match="out of range"):
            FaultPlan(fail_stop={7: 100.0}).dead_ticks(4)
        with pytest.raises(FaultPlanError, match="out of range"):
            FaultPlan(dram_bandwidth_factors={7: 0.5}).dram_factors(4)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = FaultPlan(seed=42, drop_rate=0.3, duplicate_rate=0.1,
                      delay_rate=0.1, lane_stall_rate=0.2)
        b = FaultPlan(seed=42, drop_rate=0.3, duplicate_rate=0.1,
                      delay_rate=0.1, lane_stall_rate=0.2)
        draws_a = [a.message_fault(actor, n)
                   for actor in range(8) for n in range(200)]
        draws_b = [b.message_fault(actor, n)
                   for actor in range(8) for n in range(200)]
        assert draws_a == draws_b
        stalls_a = [a.lane_stall(w, i) for w in range(4) for i in range(200)]
        stalls_b = [b.lane_stall(w, i) for w in range(4) for i in range(200)]
        assert stalls_a == stalls_b

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, drop_rate=0.5)
        b = FaultPlan(seed=2, drop_rate=0.5)
        draws_a = [a.message_fault(0, n) for n in range(200)]
        draws_b = [b.message_fault(0, n) for n in range(200)]
        assert draws_a != draws_b

    def test_draws_are_pure_functions_of_content(self):
        """Re-asking about the same (actor, count) never changes the
        answer — there is no hidden consumption order to perturb."""
        plan = FaultPlan(seed=9, drop_rate=0.2, duplicate_rate=0.2)
        first = plan.message_fault(3, 17)
        for _ in range(5):
            plan.message_fault(4, 99)  # interleaved unrelated draws
            assert plan.message_fault(3, 17) == first


class TestRates:
    def test_empirical_rates_match_configuration(self):
        plan = FaultPlan(seed=7, drop_rate=0.05, duplicate_rate=0.03,
                         delay_rate=0.02)
        n = 200_000
        counts = {FAULT_NONE: 0, FAULT_DROP: 0, FAULT_DUPLICATE: 0,
                  FAULT_DELAY: 0}
        for i in range(n):
            counts[plan.message_fault(i % 64, i)] += 1
        assert counts[FAULT_DROP] / n == pytest.approx(0.05, rel=0.1)
        assert counts[FAULT_DUPLICATE] / n == pytest.approx(0.03, rel=0.1)
        assert counts[FAULT_DELAY] / n == pytest.approx(0.02, rel=0.1)

    def test_zero_rates_never_fault(self):
        plan = FaultPlan(seed=3)
        assert not plan.has_message_faults
        assert not plan.has_lane_stalls
        assert all(plan.message_fault(0, i) == FAULT_NONE for i in range(500))
        assert all(plan.lane_stall(0, i) == 0.0 for i in range(500))

    def test_lane_stall_returns_configured_cycles(self):
        plan = FaultPlan(seed=5, lane_stall_rate=1.0, lane_stall_cycles=250.0)
        assert plan.lane_stall(2, 10) == 250.0


class TestTables:
    def test_dead_ticks_defaults_to_immortal(self):
        plan = FaultPlan(fail_stop={1: 5_000.0})
        ticks = plan.dead_ticks(4)
        assert ticks == [math.inf, 5_000.0, math.inf, math.inf]

    def test_dram_factors_default_healthy(self):
        plan = FaultPlan(dram_bandwidth_factors={2: 0.5})
        assert plan.dram_factors(4) == [1.0, 1.0, 0.5, 1.0]

    def test_describe_round_trips_knobs(self):
        plan = FaultPlan(seed=11, drop_rate=0.01, fail_stop={0: 9.0})
        desc = plan.describe()
        assert desc["seed"] == 11
        assert desc["drop_rate"] == 0.01
        assert desc["fail_stop"] == {0: 9.0}
