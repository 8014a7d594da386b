"""Whole-span engine: deterministic routing with every phase in C.

:class:`SpanEngine` runs the same wormhole simulation as the reference
:class:`~repro.simulator.engine.CycleEngine`, bit for bit, but one call
of the ``repro_soa_span`` kernel (:mod:`repro.simulator.kernel`)
advances the network through a whole *span*: from the cycle whose
arrivals were just fed up to the next arrival cycle, the warmup edge or
the end of the run.  Within the span C admits the new messages into
their source FIFOs, allocates virtual channels FCFS, arbitrates the
links, handles header and tail events, releases VCs and logs
deliveries.  Python keeps only per-message work: the workload builds
each message (destination draw, route lookup), :meth:`schedule_message`
writes its record, and :meth:`advance` replays the delivery log, in
order, through ``on_delivery``.

The kernel's state is flat ``numpy`` arrays:

* the slot planes of :mod:`repro.simulator.soa` (``avail``,
  ``head_room``, ``moved``, ``nxt_evt``, ``nxt_idx``, ``prv_idx``), plus
  the record and hop of each slot's holder;
* one record per message in flight
  (:data:`~repro.simulator.kernel.SPAN_RECORD_FIELDS`); the table
  doubles when full;
* a route pool of ``channel * 2 + class`` entries, filled the first
  time a (source, destination) pair appears — a deterministic route is
  a function of that pair;
* an intrusive FCFS request queue and a free-VC stack per (channel,
  class), and the bitmap of channels to visit in the next allocation
  pass.

Routes are fixed when a message is built, so adaptive routing runs on
:class:`~repro.simulator.soa.SoACycleEngine` instead.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.simulator.buffers import vc_class_partition
from repro.simulator.engine import _DEADLOCK_WATCHDOG_CYCLES, EngineCounters
from repro.simulator.flit import Message
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
(_CYCLE, _STOP, _BACKLOG, _TARGET, _ADMITTED, _GENERATED, _COMPLETED,
 _FLITS, _CYCLES_RUN, _DELIVERED) = (
    SPAN_IO_LAYOUT.index(f)
    for f in ("cycle", "stop", "backlog_limit", "target", "admitted",
              "generated", "completed", "flit_moves", "cycles_run",
              "delivered")
)

# "No limit" for the backlog and delivery-target exits.
_NO_LIMIT = 1 << 62

# Message records allocated up front; the table doubles when full.
_INITIAL_RECORDS = 64


class SpanEngine:
    """Deterministic-routing engine driven by the whole-span C kernel.

    Parameters
    ----------
    num_channels, num_vcs, buffer_depth, on_delivery:
        As for :class:`~repro.simulator.engine.CycleEngine`.
        ``on_delivery`` is read at delivery time, so it may be replaced
        after construction.
    num_sources:
        Number of injecting nodes (source ranks ``0..num_sources-1``).

    Raises a :class:`RuntimeError` when the C kernel is unavailable.
    """

    kernel_name = "span"

    def __init__(
        self,
        num_channels: int,
        num_vcs: int,
        buffer_depth: int,
        num_sources: int,
        on_delivery: Optional[Callable[[Message, int], None]] = None,
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
        self.on_delivery = on_delivery
        self.cycle = 0
        self.counters = EngineCounters()
        self.messages: Dict[int, Message] = {}
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
        # Messages: records, route pool, admission list, delivery log.
        self._route = np.empty(256, dtype=np.int32)
        self._route_len = 0
        self._route_off: Dict[Tuple[int, int], int] = {}
        self._rec = np.empty(0, dtype=np.int32)
        self._rec_msg: List[Optional[Message]] = []
        self._free: List[int] = []
        self._n_admit = 0
        self._grow_records(_INITIAL_RECORDS)

    # ------------------------------------------------------------------
    # Array management
    # ------------------------------------------------------------------
    def _grow_records(self, capacity: int) -> None:
        """Resize the record table, admission list and delivery log."""
        old = len(self._rec_msg)
        rec = np.empty(capacity * _FIELDS, dtype=np.int32)
        rec[: len(self._rec)] = self._rec
        self._rec = rec
        admit = np.empty(capacity, dtype=np.int32)
        if old:
            admit[: self._n_admit] = self._admit[: self._n_admit]
        self._admit = admit
        self._log_rec = np.empty(capacity, dtype=np.int32)
        self._log_cyc = np.empty(capacity, dtype=np.int64)
        self._rec_msg.extend([None] * (capacity - old))
        self._free.extend(range(capacity - 1, old - 1, -1))
        self._bind()

    def _add_route(self, key: Tuple[int, int], msg: Message) -> int:
        """Append a new (source, destination) route to the pool."""
        entries = [
            2 * c + k for c, k in zip(msg.route_channels, msg.route_classes)
        ]
        if min(entries) < 0 or max(entries) >= 2 * self.num_channels:
            raise ValueError(f"route {msg.route_channels} leaves the network")
        off = self._route_len
        end = off + len(entries)
        if end > len(self._route):
            route = np.empty(max(2 * len(self._route), end), dtype=np.int32)
            route[:off] = self._route[:off]
            self._route = route
            self._bind()
        self._route[off:end] = entries
        self._route_len = end
        self._route_off[key] = off
        return off

    def _bind(self) -> None:
        """(Re)build the kernel's context block and the Python views."""
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
        }
        self._ctx = np.array(
            [
                v if isinstance(v, int) else v.ctypes.data
                for v in (values[name] for name in SPAN_CTX_LAYOUT)
            ],
            dtype=np.uint64,
        )
        self._ctx_ptr = self._ctx.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))
        # Scalar reads and writes through memoryviews are several times
        # cheaper than numpy item access on the per-message path.
        self._io_mv = memoryview(self._io)
        self._rec_mv = memoryview(self._rec)
        self._admit_mv = memoryview(self._admit)
        self._log_rec_mv = memoryview(self._log_rec)
        self._log_cyc_mv = memoryview(self._log_cyc)

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def schedule_message(self, arrival_time: float, message: Message) -> None:
        """Admit a message arriving this cycle at the next :meth:`advance`."""
        if not self.cycle <= arrival_time < self.cycle + 1:
            raise ValueError(
                f"arrival time {arrival_time} is not due in cycle {self.cycle}"
            )
        if not 0 <= message.src < len(self._src_head):
            raise ValueError(f"source {message.src} out of range")
        key = (message.src, message.dest)
        off = self._route_off.get(key)
        if off is None:
            off = self._add_route(key, message)
        if not self._free:
            self._grow_records(2 * len(self._rec_msg))
        r = self._free.pop()
        rec = self._rec_mv
        base = r * _FIELDS
        rec[base + _SRC] = message.src
        rec[base + _LEN] = message.length
        rec[base + _ROFF] = off
        rec[base + _HOPS] = len(message.route_channels)
        self._admit_mv[self._n_admit] = r
        self._n_admit += 1
        self._rec_msg[r] = message
        self.messages[message.msg_id] = message

    def advance(
        self,
        stop: int,
        backlog_limit: Optional[int] = None,
        target_left: Optional[int] = None,
    ) -> None:
        """Run the span from :attr:`cycle` up to ``stop`` in one C call.

        The span ends early after a cycle in which the backlog exceeds
        ``backlog_limit`` or ``target_left`` deliveries have been made;
        an empty network jumps straight to ``stop`` (the jump counts in
        ``cycles_run``).  Deliveries are then replayed, in order,
        through ``on_delivery``.
        """
        if stop <= self.cycle:
            raise ValueError(f"stop {stop} is not after cycle {self.cycle}")
        io = self._io_mv
        io[_STOP] = stop
        io[_BACKLOG] = _NO_LIMIT if backlog_limit is None else backlog_limit
        io[_TARGET] = _NO_LIMIT if target_left is None else target_left
        io[_ADMITTED] = self._n_admit
        self._n_admit = 0
        status = self._fn(self._ctx_ptr)
        self.cycle = io[_CYCLE]
        counters = self.counters
        counters.generated = io[_GENERATED]
        counters.completed = io[_COMPLETED]
        counters.flit_moves = io[_FLITS]
        counters.cycles_run = io[_CYCLES_RUN]
        delivered = io[_DELIVERED]
        if delivered:
            on_delivery = self.on_delivery
            recs = self._rec_msg
            free = self._free
            messages = self.messages
            log_rec = self._log_rec_mv
            log_cyc = self._log_cyc_mv
            for i in range(delivered):
                r = log_rec[i]
                msg = recs[r]
                recs[r] = None
                free.append(r)
                del messages[msg.msg_id]
                if on_delivery is not None:
                    on_delivery(msg, log_cyc[i])
        if status:
            raise RuntimeError(
                f"no flit progress for {_DEADLOCK_WATCHDOG_CYCLES} cycles "
                f"with {len(self.messages)} messages in flight — engine bug"
            )

    def step(self) -> int:
        """Run one cycle; returns the number of flits moved."""
        before = self.counters.flit_moves
        self.advance(self.cycle + 1)
        return self.counters.flit_moves - before

    # ------------------------------------------------------------------
    # Inspection (tests)
    # ------------------------------------------------------------------
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

    def queued_messages(self) -> List[Message]:
        """Messages waiting in source FIFOs (the heads included)."""
        out = []
        for head in self._src_head[self._src_head >= 0].tolist():
            r = head
            while r >= 0:
                out.append(self._rec_msg[r])
                r = int(self._rec[r * _FIELDS + _SNEXT])
        return out
