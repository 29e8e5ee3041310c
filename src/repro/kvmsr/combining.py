"""Combining cache: the software fetch&add of the paper (Table 5: 232 LoC).

Footnote 1 of the paper: *"The fetch-n-add() operation is implemented in
UDWeave; it is not a hardware primitive.  The implementation caches the
value in the scratchpad for high performance and provides atomicity."*

Atomicity comes for free from the execution model: all updates for a key
are routed (by the reduce binding) to a single owner lane, and events on a
lane execute serially.  The cache therefore keeps per-key accumulators in
the owner lane's scratchpad and drains them to global memory once, at the
job's flush phase — turning per-edge DRAM read-modify-writes into one
write per distinct key per lane.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.memmodel.drammalloc import Region
from repro.udweave.context import LaneContext


class CombiningCache:
    """A named, lane-scratchpad-resident accumulation cache."""

    def __init__(self, name: str) -> None:
        self.name = name

    def _val_key(self, key) -> tuple:
        return ("cc", self.name, key)

    def _keys_key(self) -> tuple:
        return ("cck", self.name)

    # -- update -----------------------------------------------------------

    def add(self, ctx: LaneContext, key, delta) -> None:
        """fetch&add: accumulate ``delta`` into ``key``'s cached value.

        Scratchpad traffic is open-coded (charges identical to the
        ``sp_read``/``sp_write``/``work`` calls it replaces, in the same
        order): one add runs per emitted tuple machine-wide, so the
        five-call fan-out was pure dispatch overhead.
        """
        if ctx.__class__ is not LaneContext:
            # IR lowering: a proven composite intrinsic (CC_ADD) — the
            # generated batch executor reproduces both arms, their
            # charge order, and the per-key float accumulation order.
            ctx.op_cc_add(self, key, delta)
            return
        vk = ("cc", self.name, key)
        sp = ctx.lane.scratchpad
        sp_cost = ctx.costs.scratchpad_access
        ctx.cycles += sp_cost
        current = sp.get(vk)
        if current is None:
            kk = ("cck", self.name)
            ctx.cycles += sp_cost
            keys: List[Any] = sp.get(kk)
            if keys is None:
                keys = []
            keys.append(key)
            ctx.cycles += sp_cost
            sp[kk] = keys
            ctx.cycles += sp_cost
            sp[vk] = delta
            ctx.cycles += 2 * ctx.costs.instruction  # miss: insert + append
        else:
            ctx.cycles += sp_cost
            sp[vk] = current + delta
            ctx.cycles += 1 * ctx.costs.instruction  # hit: one add

    def get(self, ctx: LaneContext, key, default=None):
        return ctx.sp_read(self._val_key(key), default)

    def resident_keys(self, ctx: LaneContext) -> Tuple[Any, ...]:
        return tuple(ctx.sp_read(self._keys_key(), ()) or ())

    # -- drain -----------------------------------------------------------

    def flush(
        self,
        ctx: LaneContext,
        write: Callable[[LaneContext, Any, Any], None],
    ) -> int:
        """Drain every cached entry through ``write(ctx, key, value)``;
        clears the cache.  Returns the number of entries drained."""
        keys = ctx.sp_read(self._keys_key(), None)
        if not keys:
            ctx.sp_write(self._keys_key(), [])
            return 0
        count = 0
        for key in keys:
            vk = self._val_key(key)
            value = ctx.sp_read(vk)
            write(ctx, key, value)
            # Free the slot outright — a None tombstone would keep the
            # drained entry occupying scratchpad across epochs.
            ctx.sp_delete(vk)
            count += 1
        ctx.sp_write(self._keys_key(), [])
        return count

    def flush_to_region(self, ctx: LaneContext, region: Region) -> int:
        """Drain to a global-memory region: entry ``key`` is stored to
        word ``key`` with one split-phase write.  A plain store is exact
        because the reduce binding routes every key to one owner lane,
        so within a job each key is flushed once, by its owner."""
        return self.flush(
            ctx,
            lambda c, key, value: c.send_dram_write(region.addr(key), [value]),
        )
