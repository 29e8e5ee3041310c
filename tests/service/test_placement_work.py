"""Host work of SHT placement in a service soak, counted exactly.

Every SHT and adjacency operation asks its table for the key's owner
lane.  A table folds its ``("sht", name)`` hash prefix once and hashes
each distinct key once; a soak that re-hashed per operation would pay
one ``stable_hash`` per placement instead.  The count is deterministic,
so the guard is an equality, not a timing bound.
"""

from repro.datastruct import sht as sht_module
from repro.datastruct.sht import ScalableHashTable
from repro.harness import run_service
from repro.service import PoissonArrivals, SLOSpec, ServiceWorkload


def test_soak_hashes_each_distinct_key_once(monkeypatch):
    hashes = 0
    tables = 0
    placements = 0
    placed = set()
    real_hash = sht_module.stable_hash
    real_init = ScalableHashTable.__init__
    real_owner_lane = ScalableHashTable.owner_lane

    def counting_hash(key):
        nonlocal hashes
        hashes += 1
        return real_hash(key)

    def counting_init(self, runtime, name, *args, **kwargs):
        nonlocal tables
        tables += 1
        real_init(self, runtime, name, *args, **kwargs)

    def recording_owner_lane(self, key):
        nonlocal placements
        placements += 1
        placed.add((self.name, key))
        return real_owner_lane(self, key)

    monkeypatch.setattr(sht_module, "stable_hash", counting_hash)
    monkeypatch.setattr(ScalableHashTable, "__init__", counting_init)
    monkeypatch.setattr(ScalableHashTable, "owner_lane", recording_owner_lane)

    # hostbench's quick service_soak inputs at seed 7
    workload = ServiceWorkload(seed=21, n_vertices=256)
    arrivals = PoissonArrivals(mean_gap_cycles=800.0, seed=5)
    svc = run_service(
        workload.requests(arrivals.times(1_500)), nodes=4, slo=SLOSpec()
    ).extra["service"]

    assert svc.status_counts["ok"] > 0
    assert tables == 3  # the graph's vertices and edges, the state table
    assert placements > 2 * len(placed)  # keys are revisited
    assert hashes == tables + len(placed)
