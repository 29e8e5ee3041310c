"""Conservative epoch-windowed parallel execution of the sharded DES.

The authors' Fastsim is a parallel C++/OpenMP simulator; this module is
the equivalent capability for the Python DES.  The machine's nodes are
partitioned into contiguous shards, each owning a per-shard event heap
plus the lanes, DRAM channel, and injection/reply channels of its nodes.
An epoch driver repeatedly:

1. finds the global next-event time ``T`` (the min over shard heaps);
2. advances every shard independently through the window
   ``[T, T + lookahead)``;
3. exchanges the boundary events each shard issued for the others, then
   repeats.

``lookahead`` is :attr:`MachineConfig.conservative_lookahead_cycles` —
the minimum number of cycles any cross-node interaction needs to take
effect (cross-node message base latency, or one remote-DRAM fabric
transit).  Because every event a shard executes inside the window can
only schedule work on *other* shards at ``>= T + lookahead``, no shard
can miss an inbound event by running ahead within the window: the
classic conservative (lookahead-based) synchronization argument, the
same barrier-synchronized discipline GraphLab's engines use.

Determinism — the hard requirement — comes from the heap key: every
scheduled event carries ``(time, dest, seq)`` where ``seq`` is assigned
by the *issuing* actor from its private counter (see
``repro.machine.events``).  Each actor (host, lane, or node) executes on
exactly one shard, so the keys a sharded run assigns are byte-for-byte
the keys the sequential run assigns, and each shard pops exactly the
sequential event sequence restricted to its nodes.  Combined with strict
node-ownership of all cost-model state (channels, memory, lanes) and the
window-barrier exchange of everything that crosses shards, every counter,
timestamp, and mailbox entry is bit-identical to the sequential drain.

The epoch loop is written once (:meth:`_WindowCoordinator.drain`) and owns
everything about a window that does not depend on *where* shards
execute: the ``run(until=)`` clamp, the event budget, the watchdog
verdict between windows, the teardown of a drain cut short.  Two shard
runners plug into it:

* :class:`ShardScheduler` — in-process (``shards=N``): one simulator,
  per-shard heaps, each window executed shard after shard under the GIL.
  No speedup (it exists for tests, debugging, and as the reference the
  parity suite checks the parallel mode against), but the full sharding
  semantics.
* :class:`ParallelExecutor` — multiprocessing (``parallel=True``): one
  forked worker per shard, inheriting the full runtime state copy-on-
  write.  Boundary records flow *directly between workers* through
  shared-memory ring buffers (one fixed-capacity ring per ordered shard
  pair); the parent runs the loop, exchanging only small control tuples
  over the Pipes.

Boundary frames
---------------
At each window's flush a worker flattens its outbox for a peer into
plain tuples (``repro.machine.events.flatten_boundary_entry``), appends
that window's functional-memory writes, and ships the lot as one
``pickle.dumps(rows, protocol=5)`` frame per (peer, window); the
consumer does one ``pickle.loads`` per frame and rebuilds each record
with one constructor call.  A batch splits into several frames only
when its pickle exceeds half the ring (:func:`pack_frames`), so a
consumer can drain one frame while the producer writes the next; a lone
record may use the whole ring.  Streams are stateless — forked workers
inherited one label-id table.  Only bytes this process tree wrote are
ever unpickled: the segment is created by the parent before the fork and
written by its workers alone.

After its flush a worker publishes its progress counter (windows
completed) and waits, draining its inbound rings, until every peer has
published the same window: the reported next-event time then accounts
for everything in flight, and the parent opens the next window.

All shared-memory cursors and counters are read and written exclusively
under one ``multiprocessing.Array`` lock; the mutex acquire/release
pairs provide the happens-before edges between a producer's payload
writes and a consumer's reads (CPython offers no portable fences).
Ring payload bytes themselves are written outside the lock — a consumer
never reads past the published cursor.

Ring capacity (``parallel_ring_kib``) is a speed matter only: a frame
that finds its ring full waits for the consumer, draining the producer's
own inbound rings while it spins.  Every wait in the fabric drains, and
no worker leaves a window before every peer has published it, so a
spinning producer's consumer is either inside its own finite ``_drain``
or inside a draining wait — the fabric cannot deadlock.  Only a *single
record* whose frame exceeds a whole ring cannot travel; it raises a
:class:`SimulationError` naming ``parallel_ring_kib``.

Worker processes are daemonic and persist across drains (lane, thread,
and scratchpad state lives in them between ``run()`` calls).  Host-side
mutations after the first parallel drain are limited to new injections —
those are forwarded.  Everything else the host does between drains is
invisible to the forked workers: direct writes into memory regions or
lane scratchpads, and registrations of thread classes, KVMSR jobs, or
host mailbox labels.  Registrations are *detected* (via the runtime's
setup token) and rejected with a clear error; multi-phase applications
that set up between runs should use in-process sharding (``shards=N``),
which shares everything and needs no replication.
"""

from __future__ import annotations

import functools
import heapq
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import sys
import tempfile
import time
import traceback
from multiprocessing import shared_memory
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .events import flatten_boundary_entry, rebuild_boundary_rows
from .simulator import QuiescenceStall, SimulationError, collector_quiet


class ShardWorkerFailed(SimulationError):
    """A forked shard worker died instead of answering the coordinator.

    Carries which worker (``shard``, ``None`` when only the pipe end is
    known), its ``exitcode``, the last epoch ``window`` the pool
    completed before the failure — the point to restart analysis from —
    and ``stderr_tail``, the last ~2 KB the dead worker wrote to its
    captured stderr (empty when it wrote nothing).  The pool is torn
    down before this reaches the caller; no orphaned workers or open
    pipes remain.
    """

    def __init__(
        self,
        message: str,
        shard: Optional[int] = None,
        exitcode: Optional[int] = None,
        window: Optional[tuple] = None,
        stderr_tail: str = "",
    ) -> None:
        if stderr_tail:
            message = f"{message}\nworker stderr tail:\n{stderr_tail}"
        super().__init__(message)
        self.shard = shard
        self.exitcode = exitcode
        self.window = window
        self.stderr_tail = stderr_tail


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def pack_frames(rows: list, bound: int) -> Iterator[bytes]:
    """Pickle one (peer, window) batch into frame payloads, in order.

    One frame unless the pickle exceeds ``bound`` bytes; then the rows
    are cut into the number of even runs the overshoot suggests, each
    packed the same way.  A single row is never cut: its frame is
    yielded whatever its size, and the ring write decides (it raises the
    ``parallel_ring_kib`` error when the frame exceeds the whole ring).
    """
    payload = _dumps(rows)
    if len(payload) <= bound or len(rows) < 2:
        yield payload
        return
    pieces = -(-len(payload) // bound)
    size = -(-len(rows) // pieces)
    for lo in range(0, len(rows), size):
        yield from pack_frames(rows[lo : lo + size], bound)


def unpack_frame(payload) -> Tuple[list, list]:
    """``(entries, wlogs)`` of one :func:`pack_frames` payload.

    Unpickles — callers pass only frames a worker of this pool packed.
    """
    return rebuild_boundary_rows(pickle.loads(payload))


def make_scheduler(sim):
    """The shard scheduler matching ``sim``'s configuration."""
    if sim.parallel:
        return ParallelExecutor(sim)
    return ShardScheduler(sim)


class _WindowCoordinator:
    """The conservative window loop, and the topology arithmetic both
    shard runners route by.  A runner supplies only what differs:

    * ``_open()`` — make the runner ready for this drain's first window;
    * ``_next_times()`` — each non-empty shard's next event time;
    * ``_run_window(window_end, budget)`` — run every shard up to
      ``window_end`` (each may spend the whole ``budget``); returns
      ``(events executed, latest application-progress tick any shard
      saw)``;
    * ``_close(bound)`` — publish the drain's results on ``sim`` and
      :meth:`_settle`;
    * ``_abort()`` / ``_stall_dump()`` — when it holds resources or
      remote state.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.shards: int = sim.shards
        cfg = sim.config
        self.lookahead: float = cfg.conservative_lookahead_cycles
        self.total_lanes: int = cfg.total_lanes
        self.lanes_per_node: int = cfg.lanes_per_node
        self.shard_of_node: List[int] = sim._shard_of_node
        #: nodes owned by each shard (contiguous blocks).
        self.shard_nodes: List[List[int]] = [
            [] for _ in range(self.shards)
        ]
        for node, shard in enumerate(self.shard_of_node):
            self.shard_nodes[shard].append(node)
        #: host-bound entries collected during windows (see
        #: :meth:`_settle`).
        self._host_entries: List[tuple] = []
        #: last fully exchanged epoch window ``(T, window_end)`` —
        #: named in :class:`ShardWorkerFailed` when a worker dies.
        self._last_window: Optional[tuple] = None
        #: epoch windows coordinated so far, over all drains.
        self.windows = 0

    def shard_of_entry(self, entry) -> int:
        """Owning shard of a heap entry (lane delivery or DRAM arrival)."""
        dest = entry[1]
        if dest >= self.total_lanes:
            node = dest - self.total_lanes
        else:
            node = dest // self.lanes_per_node
        return self.shard_of_node[node]

    def drain(self, max_events: Optional[int], until: Optional[float] = None):
        """Run windows until nothing is queued before ``until`` (the
        :meth:`Simulator.run` bound; later entries stay queued in the
        shard heaps or the workers).  Clamping a window to the bound is
        always safe: any window that ends no later than one lookahead
        past the next event preserves the conservative argument.
        """
        sim = self.sim
        lookahead = self.lookahead
        wd = sim._watchdog_cycles
        budget = max_events
        bound = math.inf if until is None else until
        try:
            self._open()
            while True:
                t_next = min(self._next_times(), default=math.inf)
                if t_next >= bound:
                    break
                window_end = min(t_next + lookahead, bound)
                executed, progress = self._run_window(window_end, budget)
                self._last_window = (t_next, window_end)
                self.windows += 1
                if budget is not None:
                    budget -= executed
                    if budget <= 0:
                        raise SimulationError(
                            f"simulation exceeded max_events={max_events}"
                        )
                if wd is not None:
                    # Shards see only their own events, so the stall
                    # verdict is taken here, over every shard's progress
                    # mark and the host's own (``inject`` re-arms the
                    # watchdog in this process only).
                    progress = max(progress, sim._wd_last_progress)
                    if window_end - progress > wd:
                        raise QuiescenceStall(
                            f"no application progress for "
                            f"{window_end - progress:.0f} cycles (watchdog "
                            f"threshold {wd:.0f}) across {self.shards} "
                            f"shards; only idle/control events are executing",
                            self._stall_dump(),
                        )
            self._close(bound)
        except BaseException:
            # Whatever cut the drain short, a runner that holds
            # processes and shared memory must not leave them behind, or
            # half-way through a window for the next drain to trip over.
            self._abort()
            raise
        return sim.stats

    def _open(self) -> None:
        """In-process shards are always ready."""

    def _abort(self) -> None:
        """Nothing to release in-process: the shard heaps stay intact
        and a cut-short drain can be re-entered."""

    def close(self) -> None:
        """Release whatever the runner holds (idempotent)."""
        self._abort()

    def _stall_dump(self):
        return self.sim.stall_dump()

    def _settle(self, bound: float, queued, pending: int) -> None:
        """Deliver the host mail due before ``bound`` in sequential order,
        then file the quiescence verdict (see
        :meth:`Simulator._note_quiescence`).

        The host mailbox has no feedback into the simulation, so host
        deliveries are buffered during windows and appended at drain end,
        sorted by the same ``(time, seq)`` key the sequential pop loop
        orders them by — the resulting inbox is bit-identical.  Entries
        at or after the bound stay buffered, as they would stay heaped
        sequentially, and count as queued work.
        """
        sim = self.sim
        stats = sim.stats
        entries = self._host_entries
        if entries:
            entries.sort(key=lambda e: (e[0], e[2]))
            inbox = sim.host_inbox
            final_tick = stats.final_tick
            due = 0
            for entry in entries:
                t = entry[0]
                if t >= bound:
                    break
                inbox.append((t, entry[3]))
                if t > final_tick:
                    final_tick = t
                due += 1
            stats.final_tick = final_tick
            del entries[:due]
        stats.pending_threads = pending
        stats.quiesced = pending == 0 and not queued and not entries


class ShardScheduler(_WindowCoordinator):
    """In-process shard runner (``shards=N, parallel=False``).

    Hooks ``Simulator._route`` so every push lands in the owning shard's
    heap (host-bound entries are buffered — the host is outside the
    machine), then runs a window by swapping each shard's heap into
    ``sim._heap`` in turn.  Cross-shard pushes go straight into the
    target heap: conservative lookahead guarantees they land at or
    beyond the window end, so the target shard — whether it ran already
    this window or not — cannot see them early.
    """

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.heaps: List[list] = [[] for _ in range(self.shards)]
        sim._shard_heaps = self.heaps
        sim._route = self._route
        # adopt anything injected before the first drain
        for entry in sim._take_queued():
            self._route(entry)

    def _route(self, entry) -> None:
        if entry[1] < 0:
            self._host_entries.append(entry)
            return
        heapq.heappush(self.heaps[self.shard_of_entry(entry)], entry)

    def _next_times(self):
        return (heap[0][0] for heap in self.heaps if heap)

    def _run_window(self, window_end: float, budget: Optional[int]):
        sim = self.sim
        before = sim.stats.events_executed
        for heap in self.heaps:
            if heap and heap[0][0] < window_end:
                sim._heap = heap
                try:
                    sim._drain(budget, window_end)
                finally:
                    sim._heap = []
        return sim.stats.events_executed - before, sim._wd_last_progress

    def _close(self, bound: float) -> None:
        self._settle(bound, any(self.heaps), self.sim._live_threads())


class _RingHub:
    """Shared-memory boundary fabric for one worker pool.

    One :mod:`multiprocessing.shared_memory` segment holds ``S * S``
    fixed-capacity rings (ring ``p → q`` at byte offset
    ``(p*S + q) * capacity``; the ``p == q`` diagonal is dead space kept
    for trivially uniform arithmetic).  One locked ``Array('q')`` holds
    the control words, laid out as::

        [0, S)              progress counter of shard p (published
                            windows, monotone)
        [S, S + S*S)        published write cursor of ring p→q
                            (total bytes, monotone; index = S + p*S + q)
        [S + S*S, S + 2S*S) read cursor of ring p→q (written only by
                            consumer q; index = S + S*S + p*S + q)

    Created in the parent before forking; children inherit the mapping
    and the lock, so no name-based attach is needed and child exits via
    ``os._exit`` never double-free it.  Only the parent releases it.
    """

    def __init__(self, shards: int, capacity: int, ctx) -> None:
        self.shards = shards
        self.capacity = capacity
        self.shm = shared_memory.SharedMemory(
            create=True, size=shards * shards * capacity
        )
        self.ctrl = ctx.Array("q", shards + 2 * shards * shards, lock=True)
        self._released = False

    def release(self) -> None:
        """Close and unlink the segment (idempotent, parent-only)."""
        if self._released:
            return
        self._released = True
        try:
            self.shm.close()
        except Exception:
            pass
        try:
            self.shm.unlink()
        except Exception:
            pass


class _WorkerPort:
    """One worker's endpoint on the ring fabric.

    Owns the outbound rings ``me → *`` (write cursors mirrored locally —
    nobody else writes them) and the inbound read cursors ``* → me``
    (likewise).  Frames are self-contained (see :func:`pack_frames`).

    ``pending_wlogs`` holds decoded foreign functional-memory writes as
    ``(producer, va, values)``: frames may physically arrive while the
    consumer is still executing the window they were emitted in
    (immediate cursor publication is what lets a producer free ring
    space mid-flush), so application is deferred to the start of the
    consumer's next window.  No peer enters window W+1 before the parent
    holds this worker's reply for W, so everything pending at that point
    was emitted in the window every shard just completed; applied in
    producer order, the visible write order is a pure function of the
    simulation, not of scheduling jitter.
    """

    _SPIN_YIELDS = 64
    _SPIN_SLEEP_S = 0.0005
    _SPIN_DEADLINE_S = 600.0

    def __init__(self, hub: _RingHub, shard: int) -> None:
        self.me = shard
        S = self.shards = hub.shards
        self.cap = hub.capacity
        self.buf = hub.shm.buf
        self.lock = hub.ctrl.get_lock()
        self.c = hub.ctrl.get_obj()
        #: split bound for multi-record batches: half the ring less the
        #: length prefix, so two frames of one flush fit side by side.
        self.frame_bound = max(self.cap // 2 - 4, 1)
        #: published write cursors of my outbound rings (local mirror).
        self.wr = [0] * S
        #: my read positions on inbound rings (local mirror).
        self.rd = [0] * S
        #: cached view of each consumer's read cursor on my outbound
        #: ring — refreshed under the lock only when space looks short.
        self.peer_rd = [0] * S
        #: my published progress counter (windows completed).
        self.step = 0
        self.pending_wlogs: List[tuple] = []
        # transport metrics (shipped to the parent hub at drain end)
        self.bytes_out = 0
        self.frames_out = 0
        self.records_out = 0
        self.barrier_wait_s = 0.0

    def _wr_idx(self, p: int, q: int) -> int:
        return self.shards + p * self.shards + q

    def _rd_idx(self, p: int, q: int) -> int:
        return self.shards + self.shards * self.shards + p * self.shards + q

    def write(self, target: int, payload: bytes, drain_cb) -> None:
        """Frame ``payload`` onto ring ``me → target``.

        A full ring spins for space, draining our own inbound rings
        while waiting: every wait in the fabric drains, so some consumer
        always makes progress and the spin cannot deadlock.
        """
        n = len(payload) + 4
        cap = self.cap
        me = self.me
        if n > cap:
            raise SimulationError(
                f"a single boundary record's frame of {n} bytes exceeds "
                f"the shared ring capacity ({cap} bytes); raise "
                f"parallel_ring_kib"
            )
        peer_rd = self.peer_rd
        wr = self.wr
        if cap - (wr[target] - peer_rd[target]) < n:
            rd_idx = self._rd_idx(me, target)
            deadline = None
            spins = 0
            while True:
                with self.lock:
                    peer_rd[target] = self.c[rd_idx]
                if cap - (wr[target] - peer_rd[target]) >= n:
                    break
                if deadline is None:
                    deadline = time.monotonic() + self._SPIN_DEADLINE_S
                elif time.monotonic() > deadline:
                    raise SimulationError(
                        f"shard {me} waited more than "
                        f"{int(self._SPIN_DEADLINE_S)}s for shard {target} "
                        f"to drain a full boundary ring; a peer worker is "
                        f"stalled or dead"
                    )
                drain_cb()
                spins += 1
                time.sleep(0 if spins <= self._SPIN_YIELDS else self._SPIN_SLEEP_S)
        pos = wr[target] % cap
        base = (me * self.shards + target) * cap
        data = (n - 4).to_bytes(4, "little") + payload
        end = pos + n
        buf = self.buf
        if end <= cap:
            buf[base + pos : base + end] = data
        else:
            k = cap - pos
            buf[base + pos : base + cap] = data[:k]
            buf[base : base + end - cap] = data[k:]
        wr[target] += n
        # Publish immediately (not at window end): consumers may
        # legally decode frames of a window still in progress — entry
        # records self-gate by delivery time and wlogs wait for the
        # consumer's next window — and immediate publication is what
        # lets a consumer free ring space while we are mid-flush.
        with self.lock:
            self.c[self._wr_idx(me, target)] = wr[target]
        self.bytes_out += n
        self.frames_out += 1

    def write_batch(self, target: int, rows: list, drain_cb) -> None:
        """Ship one window's ``rows`` for ``target`` as the frames
        :func:`pack_frames` cuts."""
        for payload in pack_frames(rows, self.frame_bound):
            self.write(target, payload, drain_cb)

    def deliver(self, producer: int, payload, entry_cb) -> None:
        """Decode one frame from ``producer``.

        Entries go to ``entry_cb`` immediately (the heap gates them by
        delivery time); write rows queue in :attr:`pending_wlogs` for
        the caller's next deterministic application point.
        """
        entries, wlogs = unpack_frame(payload)
        for entry in entries:
            entry_cb(entry)
        if wlogs:
            self.pending_wlogs.extend(
                (producer, va, values) for va, values in wlogs
            )

    def drain(self, entry_cb) -> None:
        """:meth:`deliver` every published inbound frame."""
        S, me, cap = self.shards, self.me, self.cap
        c, buf, rd = self.c, self.buf, self.rd
        with self.lock:
            wr = [c[self._wr_idx(p, me)] for p in range(S)]
        moved = False
        deliver = self.deliver
        for p in range(S):
            if p == me:
                continue
            have = wr[p] - rd[p]
            if not have:
                continue
            moved = True
            base = (p * S + me) * cap
            start = rd[p] % cap
            end = start + have
            if end <= cap:
                region = bytes(buf[base + start : base + end])
            else:
                region = bytes(buf[base + start : base + cap]) + bytes(
                    buf[base : base + end - cap]
                )
            view = memoryview(region)
            pos = 0
            while pos < have:
                stop = pos + 4 + int.from_bytes(region[pos : pos + 4], "little")
                deliver(p, view[pos + 4 : stop], entry_cb)
                pos = stop
            rd[p] += have
        if moved:
            with self.lock:
                for p in range(S):
                    if p != me:
                        c[self._rd_idx(p, me)] = rd[p]

    def apply_wlogs(self, write) -> None:
        """``write(va, values)`` every queued foreign write.

        Sorted by producer — stable sort preserves each producer's FIFO
        order — so the application order is the same every run, whatever
        the physical arrival interleaving was.
        """
        pend = self.pending_wlogs
        if not pend:
            return
        pend.sort(key=lambda w: w[0])
        for _producer, va, values in pend:
            write(va, values)
        pend.clear()

    def wait_for(self, value: int, drain_cb) -> None:
        """Block until every peer's progress counter reaches ``value``.

        Drains inbound rings while spinning (a peer may be blocked on
        *our* consumption) and accounts the elapsed time as barrier
        wait.
        """
        me, S, c = self.me, self.shards, self.c
        t0 = time.monotonic()
        deadline = t0 + self._SPIN_DEADLINE_S
        spins = 0
        while True:
            with self.lock:
                ok = True
                for p in range(S):
                    if p != me and c[p] < value:
                        ok = False
                        break
            if ok:
                break
            drain_cb()
            spins += 1
            time.sleep(0 if spins <= self._SPIN_YIELDS else self._SPIN_SLEEP_S)
            if time.monotonic() > deadline:
                raise SimulationError(
                    f"shard {me} waited more than "
                    f"{int(self._SPIN_DEADLINE_S)}s for peers to reach "
                    f"window {value}; a peer worker is stalled or dead"
                )
        self.barrier_wait_s += time.monotonic() - t0

    def publish(self, value: int) -> None:
        """Advance my progress counter to ``value`` (windows done)."""
        with self.lock:
            self.c[self.me] = value
        self.step = value


class ParallelExecutor(_WindowCoordinator):
    """Forked shard runner: one worker process per shard.

    The parent never executes events after the fork: it runs the window
    loop.  Per window it sends one ``run(window_end, budget)`` control
    tuple per worker and receives one ``out(executed, progress, next_t)``
    tuple back — all boundary records travel worker-to-worker through
    the :class:`_RingHub` shared-memory rings, so parent CPU work per
    window is O(control tuple), not O(boundary bytes).

    At drain end (nothing queued before the bound, nothing in flight)
    each worker ships its per-drain state deltas — statistics, recorder
    telemetry, channel states, host-bound entries, the cumulative
    functional-memory write log — in one batch; the parent merges them
    so callers see exactly what a sequential run would have produced.
    Events at or after the bound stay heaped in the workers.
    """

    def __init__(self, sim) -> None:
        super().__init__(sim)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise SimulationError(
                "parallel=True requires the fork start method (POSIX); "
                "use shards with parallel=False on this platform"
            )
        self._procs: Optional[list] = None
        self._conns: Optional[list] = None
        self._hub: Optional[_RingHub] = None
        self._stderr_paths: Optional[List[str]] = None
        self._fork_token = None
        self._broken = False
        #: each worker's reported next event time (``None`` = empty heap).
        self._next_ts: List[Optional[float]] = []
        #: host-side transport metrics (deliberately outside ``SimStats``
        #: — they describe the coordinator, not the simulated machine,
        #: and must not perturb sequential-vs-parallel fingerprints).
        self.hub_metrics: Dict[str, Any] = {
            "boundary_bytes": 0,
            "boundary_records": 0,
            "boundary_frames": 0,
            "barrier_wait_s": 0.0,
            "ring_kib": sim.config.parallel_ring_kib,
        }

    # ------------------------------------------------------------------
    # Parent side
    # ------------------------------------------------------------------

    def _open(self) -> None:
        sim = self.sim
        if self._broken:
            raise SimulationError(
                "parallel executor is no longer usable (a worker failed "
                "or the pool was shut down); build a fresh runtime"
            )
        if self._procs is None:
            self._fork()
        elif any(proc.exitcode is not None for proc in self._procs):
            # A worker died between drains (OOM kill, crash during a
            # previous abort path): fail loudly now, not with a hung
            # pipe read mid-window.
            raise self._dead_worker_error()
        elif (
            sim._setup_token is not None
            and sim._setup_token() != self._fork_token
        ):
            raise SimulationError(
                "host-side program setup changed after the parallel "
                "workers forked (thread classes, KVMSR jobs, or host "
                "mailbox labels registered between run() calls); forked "
                "workers cannot observe host-process registrations. "
                "Complete all setup before the first run(), or use "
                "in-process sharding (shards=N, parallel=False) for "
                "multi-phase applications that set up between runs."
            )
        # forward injections buffered in the parent since the last drain
        seeds: List[list] = [[] for _ in range(self.shards)]
        for entry in sim._take_queued():
            if entry[1] < 0:
                self._host_entries.append(entry)
            else:
                seeds[self.shard_of_entry(entry)].append(entry)
        for shard, conn in enumerate(self._conns):
            batch = seeds[shard]
            conn.send(("seed", _dumps(batch) if batch else None))
        self._next_ts = [msg[1] for msg in self._recv_all("next")]

    def _next_times(self):
        return (t for t in self._next_ts if t is not None)

    def _run_window(self, window_end: float, budget: Optional[int]):
        for conn in self._conns:
            conn.send(("run", window_end, budget))
        outs = self._recv_all("out")
        self._next_ts = [out[3] for out in outs]
        # Workers run the watchdog in report-only mode (a raise inside
        # one shard would desynchronize the window protocol): they hand
        # back their progress marks and the window loop is the one that
        # raises, with per-shard dumps.
        return sum(out[1] for out in outs), max(out[2] for out in outs)

    def _close(self, bound: float) -> None:
        for conn in self._conns:
            conn.send(("drain_end",))
        self._merge([msg[1] for msg in self._recv_all("final")], bound)

    def _recv_all(self, expected: str) -> List[tuple]:
        """Collect one reply from each worker, indexed by shard.

        Uses :func:`multiprocessing.connection.wait` with a short
        timeout plus exitcode polling: a sequential ``recv`` loop would
        hang forever when a worker dies while its peers spin on the
        shared-memory barrier waiting for it.
        """
        conns = self._conns
        by_conn = {conn: shard for shard, conn in enumerate(conns)}
        results: List[tuple] = [()] * len(conns)
        while by_conn:
            ready = multiprocessing.connection.wait(
                list(by_conn), timeout=0.2
            )
            if not ready:
                procs = self._procs
                if procs and any(p.exitcode is not None for p in procs):
                    raise self._dead_worker_error()
                continue
            for conn in ready:
                shard = by_conn.pop(conn)
                try:
                    msg = conn.recv()
                except EOFError:
                    # The pipe closed without a reply: the worker died
                    # (OOM kill, segfault in an extension, os._exit).
                    raise self._dead_worker_error() from None
                if msg[0] == "error":
                    raise SimulationError(f"shard worker failed:\n{msg[1]}")
                if msg[0] != expected:
                    raise SimulationError(
                        f"protocol error: expected {expected!r}, got "
                        f"{msg[0]!r} from shard {shard}"
                    )
                results[shard] = msg
        return results

    def _stderr_tail(self, shard: Optional[int], limit: int = 2048) -> str:
        """Last ``limit`` bytes the given worker wrote to stderr."""
        paths = self._stderr_paths
        if shard is None or not paths or shard >= len(paths):
            return ""
        try:
            with open(paths[shard], "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                fh.seek(max(0, size - limit))
                return fh.read().decode("utf-8", "replace").strip()
        except OSError:
            return ""

    def _dead_worker_error(self) -> ShardWorkerFailed:
        """Build the :class:`ShardWorkerFailed` naming the dead shard."""
        dead = []
        for shard, proc in enumerate(self._procs or []):
            proc.join(timeout=0.5)
            if proc.exitcode is not None:
                dead.append((shard, proc.exitcode))
        window = self._last_window
        if window is not None:
            where = (
                f"after completing window "
                f"[{window[0]:.0f}, {window[1]:.0f})"
            )
        else:
            where = "before completing any window"
        if dead:
            shard, exitcode = dead[0]
            return ShardWorkerFailed(
                f"shard {shard} worker died (exit code {exitcode}) "
                f"{where}; remaining workers were shut down",
                shard=shard,
                exitcode=exitcode,
                window=window,
                stderr_tail=self._stderr_tail(shard),
            )
        return ShardWorkerFailed(
            f"a shard worker closed its pipe without replying {where}; "
            f"remaining workers were shut down",
            window=window,
        )

    def _stall_dump(self) -> Dict[str, Any]:
        """Best-effort per-shard stall dumps for a watchdog report.

        Workers that fail to answer (already wedged or dead) are
        reported as unavailable rather than blocking the raise.
        """
        dumps: Dict[str, Any] = {}
        for shard, conn in enumerate(self._conns or []):
            dump: Any = "unavailable (worker not responding)"
            try:
                conn.send(("diag",))
                if conn.poll(10):
                    op, *body = conn.recv()
                    dump = body[0] if op == "diag" else f"unexpected {op!r}"
            except Exception:
                pass
            dumps[f"shard_{shard}"] = dump
        return dumps

    def _fork(self) -> None:
        sim = self.sim
        if sim.dispatcher is None:
            raise SimulationError("no dispatcher installed")
        if sim._setup_token is not None:
            self._fork_token = sim._setup_token()
        ctx = multiprocessing.get_context("fork")
        self._hub = _RingHub(
            self.shards, sim.config.parallel_ring_kib * 1024, ctx
        )
        self._conns = []
        self._procs = []
        self._stderr_paths = []
        for shard in range(self.shards):
            fd, path = tempfile.mkstemp(
                prefix=f"des-shard-{shard}-stderr-", suffix=".log"
            )
            self._stderr_paths.append(path)
            try:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=self._worker_main,
                    args=(shard, child_conn, fd),
                    daemon=True,
                    name=f"des-shard-{shard}",
                )
                proc.start()
            finally:
                os.close(fd)  # the child holds its own copy
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _merge(self, finals: List[Dict[str, Any]], bound: float) -> None:
        """Fold per-drain worker state deltas into the parent's objects."""
        sim = self.sim
        stats = sim.stats
        for final in finals:
            stats.absorb_delta(final["stats"])
            stats.busy_cycles_by_lane.update(final["busy"])
            labels = final["labels"]
            if labels:
                by_label = stats.events_by_label
                for label, count in labels.items():
                    by_label[label] += count
            sim.network.apply_channels(final["channels"])
            sim.memory.apply_channels(final["mem"])
            self._host_entries.extend(final["host"])
            if sim._transport is not None:
                sim._transport.give_up_log.extend(final["give_ups"])
            for key, value in final["hub"].items():
                self.hub_metrics[key] += value
        gmem = sim.funcmem
        if gmem is not None:
            # Replay every worker's functional-memory writes into the
            # parent copy (hosts read result regions directly after
            # run()), ordered by (window, shard) — the same
            # deterministic order the workers applied each other's
            # writes in.
            merged = []
            for shard, final in enumerate(finals):
                for idx, (step, va, values) in enumerate(final["wlog"]):
                    merged.append((step, shard, idx, va, values))
            merged.sort(key=lambda w: (w[0], w[1], w[2]))
            write = gmem.write_words
            for _step, _shard, _idx, va, values in merged:
                write(va, values)
        hostlog = sim.hostlog
        if hostlog is not None:
            fresh = [e for final in finals for e in final["udlog"]]
            if fresh:
                hostlog.entries.extend(fresh)
                hostlog.entries.sort(
                    key=lambda e: (e.tick, e.network_id, e.thread_id)
                )
        recorder = sim.recorder
        if recorder is not None:
            # Workers ship per-drain recorder deltas (they hand off to a
            # fresh sibling after each drain), so merging into the live
            # parent recorder is both O(delta) and safe for anything the
            # parent itself recorded between drains.
            for final in finals:
                part = final["recorder"]
                if part is not None:
                    recorder.merge_from(part)
            recorder.sort_timelines()
        # a bounded drain leaves events heaped in the workers: they count
        # against quiescence exactly like the in-process shard heaps
        self._settle(
            bound,
            any(final["queued"] for final in finals),
            sum(final["pending"] for final in finals),
        )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def _abort(self) -> None:
        """Release workers, pipes, rings, and stderr capture files —
        the one teardown, behind ``close()``, every failure path of the
        window loop, and ``__del__``.

        Workers are terminated, not asked to leave: they hold nothing
        the parent has not already merged, and a signal also ends one
        that is mid-window or spinning on a barrier.  After the pool
        held simulation state the executor cannot be reused —
        lane/thread state lived in the dead workers.

        Idempotent and exception-free by construction: every step is
        individually guarded, state is nulled before any blocking call,
        and a second invocation finds nothing left to do.
        """
        procs, self._procs = self._procs, None
        conns, self._conns = self._conns, None
        if procs:
            self._broken = True
            for proc in procs:
                try:
                    proc.terminate()
                except Exception:
                    pass
            for proc in procs:
                try:
                    proc.join(timeout=5)
                    if proc.is_alive():
                        proc.kill()
                        proc.join(timeout=5)
                except Exception:
                    pass
        if conns:
            for conn in conns:
                try:
                    conn.close()
                except Exception:
                    pass
        hub, self._hub = self._hub, None
        if hub is not None:
            hub.release()
        paths, self._stderr_paths = self._stderr_paths, None
        if paths:
            for path in paths:
                try:
                    os.unlink(path)
                except OSError:
                    pass

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self._abort()
        except BaseException:
            pass

    # ------------------------------------------------------------------
    # Worker side (runs in the forked child)
    # ------------------------------------------------------------------

    def _worker_main(self, shard: int, conn, stderr_fd: int) -> None:
        status = 0
        try:
            try:
                # Capture everything the worker (or code it hosts) writes
                # to stderr: if the process dies without a reply, the
                # parent includes the tail in ShardWorkerFailed.  Rebind
                # sys.stderr too — the inherited object may be a harness
                # capture buffer not backed by fd 2 at all.
                sys.stderr.flush()
                os.dup2(stderr_fd, 2)
                os.close(stderr_fd)
                sys.stderr = open(2, "w", buffering=1, closefd=False)
            except Exception:
                pass
            # windows arrive one message at a time, so the worker holds
            # off full collections for its whole life, not per window
            with collector_quiet():
                self._worker_loop(shard, conn)
        except BaseException:
            tb = traceback.format_exc()
            try:
                sys.stderr.write(tb)
            except Exception:
                pass
            try:
                conn.send(("error", tb))
            except Exception:
                pass
            status = 1
        finally:
            try:
                sys.stderr.flush()
            except Exception:
                pass
            try:
                conn.close()
            except Exception:
                pass
            # skip atexit/teardown inherited from the parent process
            os._exit(status)

    def _worker_loop(self, shard: int, conn) -> None:
        sim = self.sim
        shards = self.shards
        sim._scheduler = None  # this process is a plain windowed drainer
        # a raise inside one worker would wedge the window protocol; the
        # parent aggregates progress marks and raises QuiescenceStall
        sim._wd_report_only = True
        # the fork copied whatever the parent had queued, in both tiers;
        # this shard's share arrives again with the first "seed"
        sim._take_queued()
        heap = sim._heap
        heappush = heapq.heappush
        port = _WorkerPort(self._hub, shard)
        outbox: List[list] = [[] for _ in range(shards)]
        host_out: List[tuple] = []
        shard_of_entry = self.shard_of_entry

        def route(entry) -> None:
            dest = entry[1]
            if dest < 0:
                host_out.append(entry)
                return
            target = shard_of_entry(entry)
            if target == shard:
                heappush(heap, entry)
            else:
                outbox[target].append(entry)

        sim._route = route

        entry_sink = functools.partial(heappush, heap)

        def drain_rings() -> None:
            port.drain(entry_sink)

        # log functional-memory writes for cross-process replication:
        # each window's writes broadcast to every peer through the
        # rings, and the cumulative log ships to the parent at drain end
        parent_wlog: List[tuple] = []
        window_wlog: List[tuple] = []
        gmem = sim.funcmem
        orig_write = None
        if gmem is not None:
            orig_write = gmem.write_words

            def write_words(va, values):
                vals = list(values)
                parent_wlog.append((port.step, va, vals))
                window_wlog.append((va, vals))
                orig_write(va, values)

            gmem.write_words = write_words

        def flush_window() -> None:
            """Pack and ship this window's boundary output: each peer
            gets its outbox plus (broadcast) this window's write log."""
            for target in range(shards):
                batch = outbox[target]
                if target == shard or not (batch or window_wlog):
                    continue
                port.records_out += len(batch)
                rows = [flatten_boundary_entry(entry) for entry in batch]
                batch.clear()
                rows += window_wlog
                port.write_batch(target, rows, drain_rings)
            window_wlog.clear()

        # fresh per-worker recorder: workers ship per-drain deltas and
        # hand off to a fresh sibling after each drain, so they must not
        # re-report telemetry they inherited at fork time
        had_recorder = sim.recorder is not None
        if had_recorder:
            _rebind_recorder(sim, sim.recorder.sibling())
        hostlog = sim.hostlog
        # what the reliable-delivery layer abandoned ships per drain too
        transport = sim._transport
        stats = sim.stats
        my_nodes = self.shard_nodes[shard]
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "run":
                _op, window_end, budget = msg
                before = stats.events_executed
                # Apply before reading the rings again: what is queued
                # now is exactly the window every shard just completed,
                # while the rings may already hold a fast peer's frames
                # of the window we are about to run.
                port.apply_wlogs(orig_write)
                sim._drain(budget, window_end)
                flush_window()
                port.publish(port.step + 1)
                # window-end barrier: wait for every peer's publish and
                # drain, so the reported next event time accounts for
                # everything in flight
                port.wait_for(port.step, drain_rings)
                drain_rings()
                conn.send((
                    "out",
                    stats.events_executed - before,
                    sim._wd_last_progress,
                    heap[0][0] if heap else None,
                ))
            elif op == "seed":
                # a drain opens: what ships at its end is measured from here
                stats_base = stats.scalar_snapshot()
                labels_base = dict(stats.events_by_label)
                udlog_base = len(hostlog.entries) if hostlog is not None else 0
                blob = msg[1]
                if blob is not None:
                    for entry in pickle.loads(blob):
                        heappush(heap, entry)
                conn.send(("next", heap[0][0] if heap else None))
            elif op == "drain_end":
                port.apply_wlogs(orig_write)
                payload = {
                    "stats": stats.delta_since(stats_base),
                    "busy": {
                        nwid: lane.busy_cycles
                        for nwid, lane in sim._lanes.items()
                        if lane.busy_cycles
                    },
                    "labels": (
                        {
                            label: count - labels_base.get(label, 0)
                            for label, count in stats.events_by_label.items()
                            if count != labels_base.get(label, 0)
                        }
                        if sim.detailed_stats
                        else None
                    ),
                    "channels": sim.network.export_channels(my_nodes),
                    "mem": sim.memory.export_channels(my_nodes),
                    "udlog": (
                        hostlog.entries[udlog_base:]
                        if hostlog is not None
                        else []
                    ),
                    "recorder": sim.recorder if had_recorder else None,
                    "pending": sim._live_threads(),
                    "queued": len(heap),
                    "host": host_out,
                    "give_ups": transport.give_up_log if transport else (),
                    "wlog": parent_wlog,
                    "hub": {
                        "barrier_wait_s": port.barrier_wait_s,
                        "boundary_frames": port.frames_out,
                        "boundary_records": port.records_out,
                        "boundary_bytes": port.bytes_out,
                    },
                }
                conn.send(("final", payload))
                host_out = []
                if transport:
                    transport.give_up_log.clear()
                parent_wlog.clear()
                port.barrier_wait_s = 0.0
                port.frames_out = port.records_out = port.bytes_out = 0
                if had_recorder:
                    _rebind_recorder(sim, sim.recorder.drain_handoff())
            elif op == "diag":
                conn.send(("diag", sim.stall_dump()))
            else:
                raise SimulationError(f"unknown coordinator op {op!r}")


def _rebind_recorder(sim, fresh) -> None:
    """Swap a simulator's recorder hooks to ``fresh`` (same tier)."""
    old = sim.recorder
    sim.recorder = fresh
    if old.record_messages:
        sim._rec_msg = fresh.message
    if old.record_faults:
        sim._rec_fault = fresh.fault
    if old.record_channels:
        sim.network.recorder = fresh
        sim.memory.recorder = fresh
    for rebind in sim._recorder_rebinders:
        rebind(fresh)
