"""Scalable Hash Table (SHT) — the paper's workhorse abstraction.

Table 5 lists the UDWeave SHT at 4,764 LoC; it underpins the parallel
graph abstraction, ingestion, and partial match.  Keys hash to an *owner
lane*; all operations on a key are events on that lane, so they serialize
without locks (the same ownership discipline KVMSR's reduce binding uses).
Entry payloads are persisted to a DRAM region (charged through the memory
model); the bucket index lives in the owner lane's scratchpad.

Configuration mirrors the artifact's ingestion config files: buckets per
lane and entries per bucket bound the capacity
(``NUM_PGA_LANES / VERTEX_EB / VERTEX_BL`` in Listing 14).

Operations are exposed two ways:

* device-side, from any event handler: :meth:`ScalableHashTable.insert_from`,
  :meth:`lookup_from`, :meth:`update_from`, :meth:`remove_from` — each
  spawns an op event on the owner lane; replies go to a continuation.
* host-side, for tests and verification: :meth:`snapshot` reads the
  table back without charging simulated time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.kvmsr.binding import splitmix64, stable_hash
from repro.udweave import UDThread, UpDownRuntime, event
from repro.udweave.context import LaneContext


class SHTError(RuntimeError):
    """Capacity exhaustion or misuse of a scalable hash table."""


class SHTOp(UDThread):
    """One hash-table operation, executing on the key's owner lane."""

    @event
    def insert(self, ctx, table_name, key, values):
        table = ScalableHashTable.named(ctx.runtime, table_name)
        table._do_insert(ctx, key, values, overwrite=False)
        ctx.send_reply(1)
        ctx.yield_terminate()

    @event
    def update(self, ctx, table_name, key, values):
        table = ScalableHashTable.named(ctx.runtime, table_name)
        table._do_insert(ctx, key, values, overwrite=True)
        ctx.send_reply(1)
        ctx.yield_terminate()

    @event
    def lookup(self, ctx, table_name, key, tag):
        table = ScalableHashTable.named(ctx.runtime, table_name)
        values = table._do_lookup(ctx, key)
        head = () if tag is None else (tag,)
        if values is None:
            ctx.send_reply(*head, 0)
        else:
            ctx.send_reply(*head, 1, *values)
        ctx.yield_terminate()

    @event
    def remove(self, ctx, table_name, key):
        table = ScalableHashTable.named(ctx.runtime, table_name)
        removed = table._do_remove(ctx, key)
        ctx.send_reply(1 if removed else 0)
        ctx.yield_terminate()


class ScalableHashTable:
    """Host-side descriptor + device-side operations for one SHT."""

    def __init__(
        self,
        runtime: UpDownRuntime,
        name: str,
        value_words: int = 8,
        buckets_per_lane: int = 256,
        entries_per_bucket: int = 16,
        first_lane: int = 0,
        num_lanes: Optional[int] = None,
        mem_nodes: Optional[int] = None,
        block_size: int = 4096,
    ) -> None:
        if value_words < 1:
            raise SHTError("values must occupy at least one word")
        self.runtime = runtime
        self.name = name
        self.value_words = value_words
        self.buckets_per_lane = buckets_per_lane
        self.entries_per_bucket = entries_per_bucket
        self.first_lane = first_lane
        self.num_lanes = num_lanes or runtime.config.total_lanes
        if first_lane + self.num_lanes > runtime.config.total_lanes:
            raise SHTError(
                f"SHT lanes [{first_lane}, {first_lane + self.num_lanes}) "
                f"exceed the machine's {runtime.config.total_lanes} lanes"
            )
        self.capacity_per_lane = buckets_per_lane * entries_per_bucket
        tables = runtime.registry("sht_tables")
        if name in tables:
            raise SHTError(f"SHT name {name!r} already in use")
        if mem_nodes is None:
            mem_nodes = 1 << (runtime.config.nodes.bit_length() - 1)
        self.backing = runtime.gmem.dram_malloc(
            self.num_lanes * self.capacity_per_lane * value_words * 8,
            0,
            mem_nodes,
            block_size,
            name=f"sht_{name}",
        )
        #: ``stable_hash(("sht", name))``: the key-independent prefix of
        #: the owner hash, folded once (``stable_hash``'s tuple rule
        #: makes ``stable_hash(("sht", name, key))`` equal to
        #: ``splitmix64(prefix ^ stable_hash(key))``)
        self._owner_mix = stable_hash(("sht", name))
        #: key -> owner lane, one entry per distinct key placed.  The
        #: lane is a pure function of the key, so the memo is invisible
        #: (the rule KVMSR's ``_lane_memo`` follows for hash binding).
        self._owner_memo: Dict[Any, int] = {}
        runtime.register(SHTOp)
        tables[name] = self

    @staticmethod
    def named(runtime: UpDownRuntime, name: str) -> "ScalableHashTable":
        try:
            return runtime.registry("sht_tables")[name]
        except KeyError:
            raise SHTError(f"no SHT named {name!r}") from None

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def owner_lane(self, key) -> int:
        """``first_lane + stable_hash(("sht", name, key)) % num_lanes``."""
        lane = self._owner_memo.get(key)
        if lane is None:
            lane = self.first_lane + splitmix64(
                self._owner_mix ^ stable_hash(key)
            ) % self.num_lanes
            self._owner_memo[key] = lane
        return lane

    # ------------------------------------------------------------------
    # Device-side API (call from any event handler)
    # ------------------------------------------------------------------

    def insert_from(self, ctx: LaneContext, key, values=(), cont=None) -> None:
        """Insert ``key -> values``; duplicate keys raise.  The optional
        continuation receives ``(1,)`` when the insert lands."""
        ctx.spawn(self.owner_lane(key), "SHTOp::insert", self.name, key,
                  tuple(values), cont=cont)

    def update_from(self, ctx: LaneContext, key, values=(), cont=None) -> None:
        """Insert-or-overwrite (upsert)."""
        ctx.spawn(self.owner_lane(key), "SHTOp::update", self.name, key,
                  tuple(values), cont=cont)

    def lookup_from(self, ctx: LaneContext, key, cont, tag=None) -> None:
        """Reply is ``(1, *values)`` on hit, ``(0,)`` on miss; a non-None
        ``tag`` is prepended so callers with several outstanding lookups
        can tell the replies apart."""
        ctx.spawn(self.owner_lane(key), "SHTOp::lookup", self.name, key, tag,
                  cont=cont)

    def remove_from(self, ctx: LaneContext, key, cont=None) -> None:
        ctx.spawn(self.owner_lane(key), "SHTOp::remove", self.name, key,
                  cont=cont)

    # ------------------------------------------------------------------
    # Owner-lane internals (run inside SHTOp events)
    # ------------------------------------------------------------------

    def _index(self, ctx: LaneContext) -> Dict[Any, Tuple[int, Tuple[Any, ...]]]:
        key = ("sht", self.name)
        idx = ctx.sp_read(key)
        if idx is None:
            idx = {}
            ctx.sp_write(key, idx)
        return idx

    def _do_insert(self, ctx: LaneContext, key, values, overwrite: bool) -> None:
        values = tuple(values)
        if len(values) > self.value_words:
            raise SHTError(
                f"value of {len(values)} words exceeds table width "
                f"{self.value_words}"
            )
        idx = self._index(ctx)
        ctx.work(3)  # hash + bucket walk
        existing = idx.get(key)
        if existing is not None:
            if not overwrite:
                raise SHTError(f"duplicate key {key!r} in SHT {self.name!r}")
            slot = existing[0]
        else:
            used_key = ("shtn", self.name)
            used = ctx.sp_read(used_key, 0)
            if used >= self.capacity_per_lane:
                raise SHTError(
                    f"SHT {self.name!r} lane {ctx.network_id} is full "
                    f"({self.capacity_per_lane} entries)"
                )
            lane_index = ctx.network_id - self.first_lane
            slot = lane_index * self.capacity_per_lane + used
            ctx.sp_write(used_key, used + 1)
        idx[key] = (slot, values)
        ctx.sp_write(("sht", self.name), idx)
        if values:
            padded = list(values) + [0] * (self.value_words - len(values))
            ctx.send_dram_write(
                self.backing.addr(slot * self.value_words), padded
            )

    def _do_lookup(self, ctx: LaneContext, key):
        idx = self._index(ctx)
        ctx.work(3)
        entry = idx.get(key)
        return None if entry is None else entry[1]

    def _do_remove(self, ctx: LaneContext, key) -> bool:
        idx = self._index(ctx)
        ctx.work(3)
        if key in idx:
            del idx[key]
            ctx.sp_write(("sht", self.name), idx)
            return True
        return False

    # ------------------------------------------------------------------
    # Host-side verification
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[Any, Tuple[Any, ...]]:
        """All entries, read host-side (no simulated cost)."""
        out: Dict[Any, Tuple[Any, ...]] = {}
        for lane in range(self.first_lane, self.first_lane + self.num_lanes):
            ln = self.runtime.sim._lanes.get(lane)
            if ln is None:
                continue
            idx = ln.scratchpad.get(("sht", self.name))
            if idx:
                for key, (_slot, values) in idx.items():
                    out[key] = values
        return out

    def __len__(self) -> int:
        return len(self.snapshot())
