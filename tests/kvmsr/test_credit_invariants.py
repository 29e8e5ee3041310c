"""Property-style credit accounting invariants for KVMSR.

Two ledgers keep KVMSR honest, and both must balance at *every* drain
point, not just at completion:

* the machine's message partition — every send is exactly one of local /
  remote / host-injected / host-bound (``sent == local + remote +
  host_injected + host_bound``), which holds even when the fault layer
  discards deliveries (a dropped message was still sent);
* the reduce-credit ledger — reducers bank one scratchpad credit per
  tuple processed (``("kvr", job_id)``), the master's poll loop sums
  them against ``total_emitted``, and the flush resets them to zero so
  the job object is relaunchable.
"""

import random

from repro.faults import FaultPlan
from repro.kvmsr import KVMSRJob, MapTask, RangeInput, ReduceTask, job_of
from repro.kvmsr.engine import _credit_diagnostics
from repro.machine import bench_machine
from repro.udweave import UpDownRuntime


def message_partition_holds(stats) -> bool:
    return stats.messages_sent == (
        stats.messages_local
        + stats.messages_remote
        + stats.messages_host_injected
        + stats.messages_host_bound
    )


def banked_credits(sim, job_id) -> int:
    return _credit_diagnostics(sim)["reduce_credits_by_job"].get(job_id, 0)


class TestCreditLedger:
    def test_invariants_hold_at_every_drain_point(self):
        """Step randomized jobs through bounded windows; the partition
        and credit ledgers must balance at each pause."""
        rng = random.Random(2024)
        for trial in range(4):
            n_keys = rng.randint(5, 40)
            fanout = [rng.randint(0, 4) for _ in range(n_keys)]
            rt = UpDownRuntime(bench_machine(nodes=2))
            sink = {}

            class FanMap(MapTask):
                def kv_map(self, ctx, key):
                    for j in range(fanout[key]):
                        self.kv_emit(ctx, (key, j), key * 100 + j)
                    self.kv_map_return(ctx)

            FanMap.__name__ = f"FanMap{trial}"

            class Collect(ReduceTask):
                def kv_reduce(self, ctx, key, value):
                    job_of(ctx, self._job_id).payload.setdefault(
                        key, []
                    ).append(value)
                    self.kv_reduce_return(ctx)

            Collect.__name__ = f"Collect{trial}"

            job = KVMSRJob(
                rt, FanMap, RangeInput(n_keys), reduce_cls=Collect,
                payload=sink,
            )
            job.launch()
            total_emitted = sum(fanout)
            window = 0.0
            windows = 0
            while rt.sim._heap:
                window += rng.choice([2_000.0, 5_000.0, 13_000.0])
                rt.sim.run(until=window, max_events=2_000_000)
                windows += 1
                stats = rt.sim.stats
                assert message_partition_holds(stats), (trial, windows)
                # credits are monotone in [0, emitted] mid-run; they can
                # transiently exceed the *master's view* (task_done may
                # lag the reduce), but never the true emit count
                assert 0 <= banked_credits(rt.sim, job.job_id) <= total_emitted
                assert windows < 10_000, "job made no progress"
            # completion: every tuple reduced exactly once, ledger reset
            assert rt.host_messages("kvmsr_done")
            expected = {
                (k, j): [k * 100 + j]
                for k in range(n_keys)
                for j in range(fanout[k])
            }
            assert sink == expected, trial
            assert banked_credits(rt.sim, job.job_id) == 0  # flush reset
            assert rt.sim.stats.quiesced

    def test_partition_holds_under_message_faults(self):
        """Drops/duplicates must not unbalance the partition: a dropped
        send still counts as sent+remote, a duplicate counts once."""
        rt = UpDownRuntime(
            bench_machine(nodes=2),
            faults=FaultPlan(seed=6, drop_rate=0.02, duplicate_rate=0.02),
            reliable=True,
        )
        sink = {}

        class Emit(MapTask):
            def kv_map(self, ctx, key):
                self.kv_emit(ctx, key % 7, key)
                self.kv_map_return(ctx)

        class Collect(ReduceTask):
            def kv_reduce(self, ctx, key, value):
                job_of(ctx, self._job_id).payload.setdefault(
                    key, []
                ).append(value)
                self.kv_reduce_return(ctx)

        job = KVMSRJob(
            rt, Emit, RangeInput(80), reduce_cls=Collect, payload=sink
        )
        job.launch()
        window = 0.0
        while rt.sim._heap:
            window += 7_000.0
            rt.sim.run(until=window, max_events=3_000_000)
            s = rt.sim.stats
            assert message_partition_holds(s)
        stats = rt.sim.stats
        assert stats.faults_messages_dropped > 0
        assert sorted(v for vs in sink.values() for v in vs) == list(range(80))
        assert banked_credits(rt.sim, job.job_id) == 0
        assert stats.quiesced

    def test_lost_credit_without_retry_is_visible_in_the_ledger(self):
        """The same ledger the watchdog dumps: a dropped tuple leaves
        ``banked < emitted`` permanently (see tests/faults/test_watchdog
        for the stall this causes when the run is left to poll)."""
        rt = UpDownRuntime(
            bench_machine(nodes=2), faults=FaultPlan(seed=1, drop_rate=0.02)
        )
        sink = {}

        class Emit(MapTask):
            def kv_map(self, ctx, key):
                self.kv_emit(ctx, key % 5, key)
                self.kv_map_return(ctx)

        class Collect(ReduceTask):
            def kv_reduce(self, ctx, key, value):
                job_of(ctx, self._job_id).payload.setdefault(
                    key, []
                ).append(value)
                self.kv_reduce_return(ctx)

        job = KVMSRJob(
            rt, Emit, RangeInput(60), reduce_cls=Collect, payload=sink
        )
        job.launch()
        # bounded stepping (not run-to-quiescence): the master never
        # finishes, so cap the walk at a fixed horizon
        for _ in range(60):
            rt.sim.run(
                until=rt.sim.now + 10_000.0, max_events=3_000_000
            )
            assert message_partition_holds(rt.sim.stats)
            if not rt.sim._heap:
                break
        assert rt.sim.stats.faults_messages_dropped > 0
        diag = _credit_diagnostics(rt.sim)
        (master,) = diag["live_masters"]
        assert master["outstanding"] > 0
        assert master["reduce_credits_banked"] < master["total_emitted"]
        assert not rt.host_messages("kvmsr_done")
