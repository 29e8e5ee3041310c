"""WF2: the streaming graph-analytics workflow (artifact's wf2k1/wf2k4).

The AGILE WF2 pipeline the paper evaluates pieces of: **K1** parses a CSV
stream and constructs the graph (§5.2.4's ingestion), **K4** incrementally
matches registered patterns against the stream (partial match), and the
reasoning kernels answer multihop queries over the accumulated structure.
This module composes all three on one simulated machine and extracts the
per-phase timings the artifact's ``perflog.tsv`` records (Listing 21):
the ``UDKVMSR started / finished`` markers bracket each phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.ingestion import IngestionApp
from repro.apps.multihop import MultihopApp
from repro.apps.partial_match import PartialMatchApp, Pattern
from repro.apps.tform import Record
from repro.machine.config import MachineConfig
from repro.udweave import UpDownRuntime


@dataclass
class WF2Report:
    """Per-phase outcome of one WF2 run."""

    records: int
    alerts: List[Tuple[int, int, int]]
    reached: Dict[int, int]
    phase_seconds: Dict[str, float]
    perflog: str

    def write_perflog(self, path) -> Path:
        path = Path(path)
        path.write_text(self.perflog + "\n")
        return path


class WF2Workflow:
    """Compose ingestion (K1), partial match (K4), and multihop reasoning
    on a single machine, with perflog-style phase timing."""

    def __init__(
        self,
        config: MachineConfig,
        patterns: Sequence[Pattern],
        seeds: Sequence[int],
        hops: int = 2,
        shards: int = 1,
    ) -> None:
        self.config = config
        self.patterns = list(patterns)
        self.seeds = list(seeds)
        self.hops = hops
        self.shards = shards

    def _runtime(self) -> UpDownRuntime:
        return UpDownRuntime(self.config, shards=self.shards)

    def run(
        self,
        records: Sequence[Record],
        gap_cycles: float = 5_000.0,
        max_events: Optional[int] = None,
    ) -> WF2Report:
        records = list(records)
        phase_seconds: Dict[str, float] = {}

        # --- K1: bulk ingestion of the historical stream ----------------
        rt = self._runtime()
        ingest = IngestionApp(rt, records, name="wf2k1", adjacency=True)
        ing_res = ingest.run(max_events=max_events)
        phase_seconds["k1_ingest"] = rt.udlog.seconds_between(
            "UDKVMSR started for wf2k1", "UDKVMSR finished for wf2k1"
        )

        # --- K4: live stream matched against the registered patterns ----
        rt2 = self._runtime()
        matcher = PartialMatchApp(rt2, self.patterns, name="wf2k4")
        pm_res = matcher.run_stream(
            records, gap_cycles=gap_cycles, max_events=max_events
        )
        phase_seconds["k4_match_mean_latency"] = pm_res.mean_latency_seconds

        # --- reasoning: multihop reachability over the ingested graph ---
        rt3 = self._runtime()
        reason = MultihopApp(rt3, records, name="wf2mh")
        reason.run_ingest(max_events=max_events)
        mh_res = reason.query(
            self.seeds, self.hops, max_events=max_events
        )
        phase_seconds["reasoning"] = mh_res.elapsed_seconds

        perflog = "\n".join(
            [
                rt.udlog.to_perflog_tsv(),
                rt2.udlog.to_perflog_tsv().split("\n", 1)[-1],
                rt3.udlog.to_perflog_tsv().split("\n", 1)[-1],
            ]
        )
        return WF2Report(
            records=ing_res.records,
            alerts=pm_res.alerts,
            reached=mh_res.reached,
            phase_seconds=phase_seconds,
            perflog=perflog,
        )
