"""The open-loop harness end to end: latency, verdicts, chaos soaks."""

from repro.faults import FaultPlan
from repro.faults.transport import ReliabilityConfig
from repro.harness import bench_config, fingerprint, run_service
from repro.machine import Simulator, bench_machine
from repro.observe import make_recorder
from repro.service import (
    BurstyArrivals,
    SLOSpec,
    ServiceApp,
    ServiceHarness,
    ServiceWorkload,
    SteadyArrivals,
)
from repro.udweave import UpDownRuntime


def _steady(seed=7, n=40, gap=3000.0, **wl_kw):
    wl = ServiceWorkload(seed=seed, n_vertices=32, **wl_kw)
    return wl.requests(SteadyArrivals(gap_cycles=gap).times(n))


def _soak(reqs, shards=1, slo=None, **rt_kw):
    """``run_service``'s soak on 4 nodes, built here so the simulator is
    in hand: ``(fingerprint(sim, result), result)``.  Beside the
    ``ServiceResult`` digest, the fingerprint compares the model
    counters, host mailbox, per-lane busy cycles and scratchpads."""
    rt = UpDownRuntime(
        bench_config(4), recorder=make_recorder("histograms"),
        shards=shards, **rt_kw,
    )
    res = ServiceHarness(ServiceApp(rt)).run(
        reqs, slo=slo, max_events=30_000_000
    )
    return fingerprint(rt.sim, res), res


class TestHealthyRun:
    def test_all_requests_complete_and_pass_slo(self):
        rec = run_service(_steady(), nodes=4, slo=SLOSpec())
        svc = rec.extra["service"]
        assert svc.status_counts == {
            "ok": 40, "deadline_miss": 0, "shed": 0, "lost": 0
        }
        assert svc.verdict.passed and svc.verdict.violations == []
        assert rec.metric > 0  # completed requests per second

    def test_every_class_gets_latency_samples(self):
        rec = run_service(_steady(n=80), nodes=4)
        hists = rec.extra["service"].latency_hist
        assert all(hists[cls].count > 0 for cls in hists)
        assert all(hists[cls].quantile_bound(0.99) > 0 for cls in hists)

    def test_offered_load_crosses_the_queueing_knee(self):
        # DESIGN.md "genuine queueing knee": with the injection port
        # narrowed to 0.3 B/cycle, a 16x higher offered rate queues
        # behind it — the update p99 bound rises (8,192 -> 65,536
        # cycles) while every request still completes inside its SLO
        wl = ServiceWorkload(seed=21, n_vertices=64)
        p99 = {}
        for gap in (1600.0, 100.0):
            svc = run_service(
                wl.requests(SteadyArrivals(gap_cycles=gap).times(200)),
                nodes=4,
                slo=SLOSpec(),
                node_injection_bytes_per_cycle=0.3,
            ).extra["service"]
            assert svc.verdict.passed, svc.verdict.violations
            p99[gap] = svc.latency_hist["update"].quantile_bound(0.99)
        assert p99[100.0] > p99[1600.0]


class TestReproducibility:
    def test_same_seed_same_fingerprint(self):
        reqs = _steady()
        a = run_service(reqs, nodes=4, slo=SLOSpec()).extra["service"]
        b = run_service(reqs, nodes=4, slo=SLOSpec()).extra["service"]
        assert a.fingerprint() == b.fingerprint()
        assert a.verdict.to_dict() == b.verdict.to_dict()

    def test_shard_invariant(self):
        # until-stepping is the same clamp under shards: the open loop
        # runs there too, observationally identical
        reqs = _steady()
        (a, a_res), (b, b_res) = (
            _soak(reqs, shards, SLOSpec()) for shards in (1, 2)
        )
        assert a == b
        assert a_res.verdict.to_dict() == b_res.verdict.to_dict()
        # the soak is what run_service runs
        rec = run_service(reqs, nodes=4, slo=SLOSpec()).extra["service"]
        assert rec.fingerprint() == a["result"]


class TestDeadlines:
    def test_impossible_deadline_is_a_miss_not_a_loss(self):
        # 1-cycle deadlines: every request completes but far too late
        wl = ServiceWorkload(seed=7, n_vertices=32)
        reqs = [
            r.__class__(r.req_id, r.cls, r.t_arrival, 1.0, r.payload)
            for r in wl.requests(SteadyArrivals(gap_cycles=3000.0).times(20))
        ]
        svc = run_service(reqs, nodes=4, slo=SLOSpec()).extra["service"]
        assert svc.status_counts["deadline_miss"] == 20
        assert svc.status_counts["lost"] == 0
        assert not svc.verdict.passed
        assert any("deadline" in v for v in svc.verdict.violations)


class TestChaosSoak:
    PLAN = dict(faults=FaultPlan(seed=3, drop_rate=0.02), reliable=True)

    def test_drops_recovered_by_transport_still_pass(self):
        reqs = _steady()
        svc = run_service(reqs, nodes=4, slo=SLOSpec(), **self.PLAN).extra[
            "service"
        ]
        assert svc.fault_counts.get("msg_drop", 0) > 0
        assert svc.status_counts["lost"] == 0
        assert svc.verdict.passed

    def test_chaos_run_is_shard_invariant(self):
        reqs = _steady()
        kw = dict(slo=SLOSpec(), watchdog_cycles=30_000.0, **self.PLAN)
        (a, a_res), (b, b_res) = (
            _soak(reqs, shards, **kw) for shards in (1, 2)
        )
        assert a_res.fault_counts.get("msg_drop", 0) > 0
        assert a == b
        assert a_res.verdict.to_dict() == b_res.verdict.to_dict()
        assert a_res.fault_counts == b_res.fault_counts

    def test_bursty_idle_gaps_survive_a_tight_watchdog(self):
        # idle gaps (120k cycles) dwarf the watchdog (30k): the rearm-on-
        # injection semantics plus the harness's one-arrival look-ahead
        # keep intentional idleness from tripping QuiescenceStall
        wl = ServiceWorkload(seed=7, n_vertices=32)
        reqs = wl.requests(
            BurstyArrivals(
                burst_size=8, gap_cycles=500.0, idle_gap_cycles=120_000.0
            ).times(32)
        )
        kw = dict(slo=SLOSpec(), watchdog_cycles=30_000.0, **self.PLAN)
        out, svc = _soak(reqs, **kw)
        assert svc.status_counts["ok"] == 32
        assert svc.verdict.passed
        # and the gaps are stepped over identically when sharded
        sharded, sharded_svc = _soak(reqs, shards=2, **kw)
        assert sharded == out
        assert sharded_svc.verdict.to_dict() == svc.verdict.to_dict()


class TestGiveUpSoak:
    """Retransmit-budget exhaustion mid-soak: accounted, not hung."""

    KW = dict(
        faults=FaultPlan(seed=9, drop_rate=0.25),
        reliable=ReliabilityConfig(max_retries=1, ack_timeout_cycles=3000.0),
    )

    def _run(self, shards=1):
        """``(fingerprint, ServiceResult)`` of the give-up soak."""
        reqs = ServiceWorkload(seed=11, n_vertices=32).requests(
            SteadyArrivals(gap_cycles=2500.0).times(50)
        )
        return _soak(reqs, shards, SLOSpec(), **self.KW)

    def test_give_ups_are_recorded_and_fail_the_slo(self):
        _, svc = self._run()
        # the transport abandoned deliveries...
        assert svc.transport_give_ups > 0
        assert len(svc.give_up_log) == svc.transport_give_ups
        # ...each one recorded as a fault event (rdt_give_up), tier-free
        assert svc.fault_counts.get("rdt_give_up", 0) == svc.transport_give_ups
        # ...and the damage shows up as lost requests + a failing verdict
        # (not a hang: run_service returned)
        assert svc.status_counts["lost"] > 0
        assert not svc.verdict.passed
        assert any("lost" in v for v in svc.verdict.violations)
        # lost requests have no latency sample
        completed = sum(h.count for h in svc.latency_hist.values())
        assert completed == svc.status_counts["ok"] + svc.status_counts[
            "deadline_miss"
        ]

    def test_give_up_soak_is_deterministic_and_shard_invariant(self):
        (a, a_res), (b, _), (c, c_res) = (
            self._run(shards) for shards in (1, 1, 2)
        )
        assert a == b == c
        # sorted: order-free equality
        assert a_res.give_up_log == c_res.give_up_log
        assert len(c_res.give_up_log) > 0


class TestVerdictFormat:
    def test_to_dict_round_trips_through_json(self):
        import json

        svc = run_service(_steady(n=20), nodes=4, slo=SLOSpec()).extra[
            "service"
        ]
        blob = json.dumps(svc.verdict.to_dict())
        assert json.loads(blob)["passed"] is True

    def test_transport_give_up_bound_checked_when_set(self):
        slo = SLOSpec(max_transport_give_ups=0, max_lost=10**6)
        reqs = ServiceWorkload(seed=11, n_vertices=32).requests(
            SteadyArrivals(gap_cycles=2500.0).times(50)
        )
        svc = run_service(
            reqs,
            nodes=4,
            slo=slo,
            faults=FaultPlan(seed=9, drop_rate=0.25),
            reliable=ReliabilityConfig(max_retries=1, ack_timeout_cycles=3000.0),
        ).extra["service"]
        assert any("gave up" in v for v in svc.verdict.violations)


class TestHostMailReleased:
    #: ``ServiceResult.fingerprint()`` of this soak when every reply
    #: stayed in the host inbox until the end (hostbench's quick
    #: ``service_soak`` inputs)
    SOAK_FINGERPRINT = (
        "a379ab5a6e7cf82544a8a337d66d2bd49705f7473327a426ee9fb3379c9d85a0"
    )

    def test_soak_leaves_no_collected_mail(self, monkeypatch):
        from types import SimpleNamespace

        from repro.service import PoissonArrivals, ServiceHarness

        earlier = (0.0, SimpleNamespace(label="before_run", operands=(0,)))
        inboxes = []
        run = ServiceHarness.run

        def run_with_earlier_mail(self, *args, **kwargs):
            inbox = self.runtime.sim.host_inbox
            inbox.append(earlier)
            inboxes.append(inbox)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(ServiceHarness, "run", run_with_earlier_mail)
        reqs = ServiceWorkload(seed=21, n_vertices=256).requests(
            PoissonArrivals(mean_gap_cycles=800.0, seed=5).times(1_500)
        )
        svc = run_service(reqs, nodes=4, slo=SLOSpec()).extra["service"]
        # every reply was read and released; mail from before the run
        # stays where it was
        assert inboxes == [[earlier]]
        assert svc.status_counts == {
            "ok": 1500, "deadline_miss": 0, "shed": 0, "lost": 0
        }
        assert svc.alerts == 119
        assert svc.fingerprint() == self.SOAK_FINGERPRINT
        # the run fingerprint carries a service result as that digest
        sim = Simulator(bench_machine(nodes=1))
        assert fingerprint(sim, svc)["result"] == self.SOAK_FINGERPRINT
