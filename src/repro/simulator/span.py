"""Whole-span engine: deterministic routing with every phase in C.

:class:`SpanEngine` runs the same wormhole simulation as the reference
:class:`~repro.simulator.engine.CycleEngine`, bit for bit, but one call
of the ``repro_soa_span`` kernel (:mod:`repro.simulator.kernel`)
advances the network through a whole *span* of cycles: up to the end of
the workload's arrival window, the warmup edge or the end of the run.
The engine is fed in bulk and holds no per-message Python objects:

* :meth:`add_routes` appends routes to a pool, once per (source,
  destination) pair — a deterministic route is a function of the pair;
* :meth:`schedule` writes a whole window of messages (arrival cycle,
  source, route, length and a caller's tag each) into the record table
  with ``numpy`` and queues them for admission;
* :meth:`advance` runs the span: C admits each message at the top of
  its own arrival cycle, allocates virtual channels FCFS, arbitrates the
  links, handles header and tail events, releases VCs, logs deliveries,
  and jumps an empty network to the next arrival cycle.  The delivery
  log comes back as arrays, in order, through ``on_deliveries``.

The kernel's state is flat ``numpy`` arrays:

* the slot planes of :mod:`repro.simulator.soa` (``avail``,
  ``head_room``, ``moved``, ``nxt_evt``, ``nxt_idx``, ``prv_idx``), plus
  the record and hop of each slot's holder;
* one record per scheduled message
  (:data:`~repro.simulator.kernel.SPAN_RECORD_FIELDS`), kept from
  :meth:`schedule` to delivery, so the table holds a window plus what
  is in flight; it doubles when full;
* the route pool of ``channel * 2 + class`` entries;
* an intrusive FCFS request queue and a free-VC stack per (channel,
  class), and the bitmap of channels to visit in the next allocation
  pass.

Routes are fixed before a message is scheduled, so adaptive routing
runs on :class:`~repro.simulator.soa.SoACycleEngine` instead.
"""

from __future__ import annotations

import ctypes
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.simulator.buffers import vc_class_partition
from repro.simulator.engine import _DEADLOCK_WATCHDOG_CYCLES, EngineCounters
from repro.simulator.kernel import (
    SPAN_CTX_LAYOUT,
    SPAN_IO_LAYOUT,
    SPAN_RECORD_FIELDS,
    load_span_kernel,
)

__all__ = ["SpanEngine"]

_FIELDS = len(SPAN_RECORD_FIELDS)
_SRC, _LEN, _ROFF, _HOPS = (
    SPAN_RECORD_FIELDS.index(f) for f in ("src", "length", "route_offset", "hops")
)
_SNEXT = SPAN_RECORD_FIELDS.index("source_next")
(_CYCLE, _STOP, _BACKLOG, _TARGET, _NEXT, _END, _GENERATED, _COMPLETED,
 _FLITS, _CYCLES_RUN, _STEPPED, _DELIVERED) = (
    SPAN_IO_LAYOUT.index(f)
    for f in ("cycle", "stop", "backlog_limit", "target", "admit_next",
              "admit_end", "generated", "completed", "flit_moves",
              "cycles_run", "stepped", "delivered")
)

# "No limit" for the backlog and delivery-target exits.
_NO_LIMIT = 1 << 62

# Message records allocated up front; the table doubles when full.
_INITIAL_RECORDS = 64

#: ``on_deliveries(tags, routes, generated, completed)``: per delivered
#: message, in delivery order, the tag and route it was scheduled with,
#: its arrival cycle and its completion cycle.
DeliveryLog = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], None]


class SpanEngine:
    """Deterministic-routing engine driven by the whole-span C kernel.

    Parameters
    ----------
    num_channels, num_vcs, buffer_depth:
        As for :class:`~repro.simulator.engine.CycleEngine`.
    num_sources:
        Number of injecting nodes (source ranks ``0..num_sources-1``).
    on_deliveries:
        Called after each :meth:`advance` that delivered messages, with
        the delivery log as arrays (see :data:`DeliveryLog`); read at
        delivery time, so it may be replaced after construction.

    Raises a :class:`RuntimeError` when the C kernel is unavailable.
    """

    kernel_name = "span"

    def __init__(
        self,
        num_channels: int,
        num_vcs: int,
        buffer_depth: int,
        num_sources: int,
        on_deliveries: Optional[DeliveryLog] = None,
    ) -> None:
        if num_channels < 1:
            raise ValueError(f"need >= 1 channel, got {num_channels}")
        if buffer_depth < 1:
            raise ValueError(f"buffer depth must be >= 1, got {buffer_depth}")
        class0, _ = vc_class_partition(num_vcs)
        self._fn = load_span_kernel()
        if self._fn is None:
            raise RuntimeError("the span engine needs the compiled C kernel")
        self.num_channels = num_channels
        self.num_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.num_sources = num_sources
        self.on_deliveries = on_deliveries
        self.cycle = 0
        self.counters = EngineCounters()
        self.channel_flit_counts = np.zeros(num_channels, dtype=np.int64)
        n_slots = num_channels * num_vcs
        self._n_slots = n_slots
        self._split = len(class0)
        # Slot planes (see soa.py); index n_slots is the write-off slot.
        self._avail = np.zeros(n_slots + 1, dtype=np.int32)
        self._head_room = np.zeros(n_slots + 1, dtype=np.int32)
        self._moved = np.zeros(n_slots + 1, dtype=np.int32)
        self._nxt_evt = np.zeros(n_slots + 1, dtype=np.int32)
        self._nxt_idx = np.full(n_slots + 1, n_slots, dtype=np.int32)
        self._prv_idx = np.full(n_slots + 1, n_slots, dtype=np.int32)
        self._rr = np.zeros(num_channels, dtype=np.int32)
        self._busy_cnt = np.zeros(num_channels, dtype=np.int32)
        self._slot_rec = np.full(n_slots, -1, dtype=np.int32)
        self._slot_hop = np.full(n_slots, -1, dtype=np.int32)
        self._win = np.empty(num_channels, dtype=np.int32)
        self._events = np.empty(num_channels, dtype=np.int32)
        # Allocation: per-source FIFOs, per-(channel, class) request
        # queues and free-VC stacks (lowest VC on top, like
        # VirtualChannelPool), candidate bitmaps.
        self._src_head = np.full(num_sources, -1, dtype=np.int32)
        self._src_tail = np.full(num_sources, -1, dtype=np.int32)
        self._q_head = np.full(2 * num_channels, -1, dtype=np.int32)
        self._q_tail = np.full(2 * num_channels, -1, dtype=np.int32)
        self._pend = np.zeros(num_channels, dtype=np.int32)
        stacks = list(reversed(range(self._split))) + list(
            reversed(range(self._split, num_vcs))
        )
        self._fstack = np.tile(np.array(stacks, dtype=np.int32), num_channels)
        self._ftop = np.tile(
            np.array([self._split, num_vcs - self._split], dtype=np.int32),
            num_channels,
        )
        words = (num_channels + 63) // 64
        self._mark = np.zeros(words, dtype=np.uint64)
        self._pass = np.zeros(words, dtype=np.uint64)
        self._busy_bits = np.zeros(words, dtype=np.uint64)
        self._stamp = np.zeros(num_channels, dtype=np.int64)
        self._io = np.zeros(len(SPAN_IO_LAYOUT), dtype=np.int64)
        self._io[SPAN_IO_LAYOUT.index("watchdog")] = _DEADLOCK_WATCHDOG_CYCLES
        # Routes: the pool of channel*2+class entries, and each route's
        # first entry and hop count.
        self._route = np.empty(256, dtype=np.int32)
        self._route_len = 0
        self._route_start = np.empty(0, dtype=np.int32)
        self._route_hops = np.empty(0, dtype=np.int32)
        # Records: the kernel's int32 fields plus each message's tag,
        # route and arrival cycle; a stack of free records; the
        # admission list (records and arrival cycles, in order); the
        # delivery log.
        self._capacity = 0
        self._rec = np.empty(0, dtype=np.int32)
        self._rec_tag = np.empty(0, dtype=np.int64)
        self._rec_route = np.empty(0, dtype=np.int32)
        self._rec_cyc = np.empty(0, dtype=np.int64)
        self._free = np.empty(0, dtype=np.int32)
        self._n_free = 0
        self._admit = np.empty(0, dtype=np.int32)
        self._admit_cyc = np.empty(0, dtype=np.int64)
        self._grow_records(_INITIAL_RECORDS)

    # ------------------------------------------------------------------
    # Array management
    # ------------------------------------------------------------------
    def _grow_records(self, capacity: int) -> None:
        """Resize the record table, free stack, admission list and log."""
        old = self._capacity
        added = capacity - old
        n_admit = int(self._io[_END])

        def grown(arr: np.ndarray, size: int, keep: int) -> np.ndarray:
            out = np.empty(size, dtype=arr.dtype)
            out[:keep] = arr[:keep]
            return out

        self._rec = grown(self._rec, capacity * _FIELDS, old * _FIELDS)
        self._rec_tag = grown(self._rec_tag, capacity, old)
        self._rec_route = grown(self._rec_route, capacity, old)
        self._rec_cyc = grown(self._rec_cyc, capacity, old)
        self._admit = grown(self._admit, capacity, n_admit)
        self._admit_cyc = grown(self._admit_cyc, capacity, n_admit)
        self._free = grown(self._free, capacity, self._n_free)
        self._free[self._n_free : self._n_free + added] = np.arange(
            capacity - 1, old - 1, -1, dtype=np.int32
        )
        self._n_free += added
        self._log_rec = np.empty(capacity, dtype=np.int32)
        self._log_cyc = np.empty(capacity, dtype=np.int64)
        self._capacity = capacity
        self._bind()

    def _bind(self) -> None:
        """(Re)build the kernel's context block."""
        values = {
            "num_channels": self.num_channels,
            "num_vcs": self.num_vcs,
            "split": self._split,
            "buffer_depth": self.buffer_depth,
            "io": self._io,
            "busy_cnt": self._busy_cnt,
            "rr": self._rr,
            "avail": self._avail,
            "head_room": self._head_room,
            "moved": self._moved,
            "nxt_evt": self._nxt_evt,
            "nxt_idx": self._nxt_idx,
            "prv_idx": self._prv_idx,
            "chan_flits": self.channel_flit_counts,
            "win": self._win,
            "events": self._events,
            "slot_rec": self._slot_rec,
            "slot_hop": self._slot_hop,
            "rec": self._rec,
            "route": self._route,
            "admit": self._admit,
            "src_head": self._src_head,
            "src_tail": self._src_tail,
            "q_head": self._q_head,
            "q_tail": self._q_tail,
            "pend": self._pend,
            "fstack": self._fstack,
            "ftop": self._ftop,
            "mark": self._mark,
            "pass_bits": self._pass,
            "stamp": self._stamp,
            "log_rec": self._log_rec,
            "log_cyc": self._log_cyc,
            "busy_bits": self._busy_bits,
            "admit_cyc": self._admit_cyc,
        }
        self._ctx = np.array(
            [
                v if isinstance(v, int) else v.ctypes.data
                for v in (values[name] for name in SPAN_CTX_LAYOUT)
            ],
            dtype=np.uint64,
        )
        self._ctx_ptr = self._ctx.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))
        # Scalar io access through a memoryview is several times cheaper
        # than numpy item access.
        self._io_mv = memoryview(self._io)

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    @property
    def num_routes(self) -> int:
        return len(self._route_start)

    def add_routes(self, channels, classes, offsets) -> np.ndarray:
        """Append routes to the pool; returns their ids, in order.

        Route ``i`` is ``channels[offsets[i]:offsets[i + 1]]`` with the
        dateline classes (0/1) at the same positions, the layout
        :meth:`RouteTable.routes
        <repro.simulator.router.RouteTable.routes>` returns.  Every
        route needs at least one hop on a channel of this engine.
        """
        channels = np.asarray(channels, dtype=np.int64)
        classes = np.asarray(classes, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        hops = np.diff(offsets)
        if (
            offsets.ndim != 1
            or not len(offsets)
            or offsets[0] != 0
            or offsets[-1] != len(channels)
            or channels.shape != classes.shape
            or np.any(hops < 1)
        ):
            raise ValueError("malformed routes: need offsets 0 < ... <= len(channels)")
        if channels.size and (
            channels.min() < 0
            or channels.max() >= self.num_channels
            or np.any((classes != 0) & (classes != 1))
        ):
            raise ValueError(f"a route leaves the network: {channels.tolist()}")
        off = self._route_len
        end = off + len(channels)
        if end > len(self._route):
            route = np.empty(max(2 * len(self._route), end), dtype=np.int32)
            route[:off] = self._route[:off]
            self._route = route
            self._bind()
        self._route[off:end] = 2 * channels + classes
        self._route_len = end
        first = self.num_routes
        self._route_start = np.concatenate(
            (self._route_start, (off + offsets[:-1]).astype(np.int32))
        )
        self._route_hops = np.concatenate((self._route_hops, hops.astype(np.int32)))
        return np.arange(first, self.num_routes, dtype=np.int64)

    def schedule(self, cycles, sources, routes, lengths, tags) -> None:
        """Write messages into the record table and queue them for admission.

        Each message arrives (is admitted into its source's injection
        FIFO) at the top of its cycle in ``cycles``, which must be in
        ascending order and not before :attr:`cycle` or an arrival
        already queued; messages arriving in one cycle are admitted in
        the order given.  ``routes`` are ids from :meth:`add_routes`;
        ``lengths`` (flits) may be one number for all; ``tags`` come
        back with each delivery.
        """
        cycles = np.asarray(cycles, dtype=np.int64)
        m = len(cycles)
        sources = np.asarray(sources, dtype=np.int64)
        routes = np.asarray(routes, dtype=np.int64)
        tags = np.asarray(tags, dtype=np.int64)
        lengths = np.broadcast_to(np.asarray(lengths, dtype=np.int64), (m,))
        if cycles.ndim != 1 or not sources.shape == routes.shape == tags.shape == (m,):
            raise ValueError("cycles, sources, routes and tags must have one length")
        if not m:
            return
        io = self._io_mv
        nxt, end = io[_NEXT], io[_END]
        earliest = max(self.cycle, int(self._admit_cyc[end - 1]) if end > nxt else 0)
        if cycles[0] < earliest or np.any(cycles[1:] < cycles[:-1]):
            raise ValueError(
                f"arrival cycles are not due: they must ascend from cycle {earliest}"
            )
        if sources.min() < 0 or sources.max() >= self.num_sources:
            raise ValueError(f"source out of range [0, {self.num_sources})")
        if routes.min() < 0 or routes.max() >= self.num_routes:
            raise ValueError(f"route id out of range [0, {self.num_routes})")
        if lengths.min() < 1:
            raise ValueError("message lengths must be >= 1")
        if nxt:
            # Move the still-queued admissions to the front of the list.
            self._admit[: end - nxt] = self._admit[nxt:end]
            self._admit_cyc[: end - nxt] = self._admit_cyc[nxt:end]
            end -= nxt
            io[_NEXT] = 0
            io[_END] = end
        if self._n_free < m:
            self._grow_records(max(2 * self._capacity, self._capacity + m))
        recs = self._free[self._n_free - m : self._n_free].copy()
        self._n_free -= m
        fields = self._rec.reshape(-1, _FIELDS)
        fields[recs, _SRC] = sources
        fields[recs, _LEN] = lengths
        fields[recs, _ROFF] = self._route_start[routes]
        fields[recs, _HOPS] = self._route_hops[routes]
        self._rec_tag[recs] = tags
        self._rec_route[recs] = routes
        self._rec_cyc[recs] = cycles
        self._admit[end : end + m] = recs
        self._admit_cyc[end : end + m] = cycles
        io[_END] = end + m

    def advance(
        self,
        stop: int,
        backlog_limit: Optional[int] = None,
        target_left: Optional[int] = None,
    ) -> None:
        """Run the span from :attr:`cycle` up to ``stop`` in one C call.

        Scheduled messages are admitted as their cycles come.  The span
        ends early after a cycle in which the backlog exceeds
        ``backlog_limit`` or ``target_left`` deliveries have been made;
        an empty network jumps straight to the next arrival cycle or
        ``stop`` (the jump counts in ``cycles_run``).  The delivery log
        then goes to ``on_deliveries``.
        """
        if stop <= self.cycle:
            raise ValueError(f"stop {stop} is not after cycle {self.cycle}")
        io = self._io_mv
        io[_STOP] = stop
        io[_BACKLOG] = _NO_LIMIT if backlog_limit is None else backlog_limit
        io[_TARGET] = _NO_LIMIT if target_left is None else target_left
        status = self._fn(self._ctx_ptr)
        self.cycle = io[_CYCLE]
        counters = self.counters
        counters.generated = io[_GENERATED]
        counters.completed = io[_COMPLETED]
        counters.flit_moves = io[_FLITS]
        counters.cycles_run = io[_CYCLES_RUN]
        if io[_NEXT] == io[_END]:
            io[_NEXT] = io[_END] = 0
        delivered = io[_DELIVERED]
        if delivered:
            recs = self._log_rec[:delivered]
            log = (
                self._rec_tag[recs],
                self._rec_route[recs],
                self._rec_cyc[recs],
                self._log_cyc[:delivered].copy(),
            )
            self._free[self._n_free : self._n_free + delivered] = recs
            self._n_free += delivered
            if self.on_deliveries is not None:
                self.on_deliveries(*log)
        if status:
            raise RuntimeError(
                f"no flit progress for {_DEADLOCK_WATCHDOG_CYCLES} cycles "
                f"with {counters.backlog} messages in flight — engine bug"
            )

    def step(self) -> int:
        """Run one cycle; returns the number of flits moved."""
        before = self.counters.flit_moves
        self.advance(self.cycle + 1)
        return self.counters.flit_moves - before

    def stop_arrivals(self) -> None:
        """Drop every scheduled message not admitted yet."""
        io = self._io_mv
        dropped = self._admit[io[_NEXT] : io[_END]]
        self._free[self._n_free : self._n_free + len(dropped)] = dropped
        self._n_free += len(dropped)
        io[_NEXT] = io[_END] = 0

    @property
    def cycles_stepped(self) -> int:
        """Cycles simulated one by one, not jumped over while idle."""
        return int(self._io[_STEPPED])

    # ------------------------------------------------------------------
    # Inspection (tests)
    # ------------------------------------------------------------------
    def backlog_ids(self) -> List[int]:
        """Tags of the admitted messages not yet delivered, ascending."""
        used = np.ones(self._capacity, dtype=bool)
        used[self._free[: self._n_free]] = False
        used[self._admit[self._io[_NEXT] : self._io[_END]]] = False
        return sorted(self._rec_tag[used].tolist())

    def queued_ids(self) -> List[int]:
        """Tags of the messages in source FIFOs (the heads included)."""
        out = []
        for head in self._src_head[self._src_head >= 0].tolist():
            r = head
            while r >= 0:
                out.append(int(self._rec_tag[r]))
                r = int(self._rec[r * _FIELDS + _SNEXT])
        return out

    def held_vcs(self) -> List[Tuple[int, int]]:
        """``(channel, vc)`` of every virtual channel held by a message."""
        return [
            divmod(int(s), self.num_vcs)
            for s in np.flatnonzero(self._slot_rec >= 0)
        ]

    def free_vcs(self, channel: int) -> List[int]:
        """Free VCs of ``channel``, class by class, bottom of stack first."""
        base = channel * self.num_vcs
        top0, top1 = self._ftop[2 * channel : 2 * channel + 2]
        return (
            self._fstack[base : base + top0].tolist()
            + self._fstack[base + self._split : base + self._split + top1].tolist()
        )
