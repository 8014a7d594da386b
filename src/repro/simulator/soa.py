"""Per-cycle structure-of-arrays engine for adaptive routing.

:class:`SoACycleEngine` runs the same four-phase wormhole simulation as
the reference :class:`~repro.simulator.engine.CycleEngine` in adaptive
mode, one Python ``step`` per cycle, but the link phase — per-cycle
readiness checks and flit moves — runs in C on flat preallocated
``numpy`` int32 arrays instead of per-message ``Message`` objects and
per-pool Python lists.  Deterministic runs use the whole-span engine
(:class:`~repro.simulator.span.SpanEngine`); this engine serves
adaptive routing, where every message's next hop is chosen in Python as
its header reaches each router.  Like the span engine it needs the
compiled kernel; without it both routing modes run on the reference
engine.  All arrays are indexed by *slot*
(``channel * num_vcs + vc``), one slot per virtual channel:

``avail``
    Flits ready to cross this channel for the holding worm
    (``crossed[hop-1] - crossed[hop]``, or ``length - crossed[0]`` at
    the injection hop).  ``0`` for free slots, so a free slot is never
    ready.
``head_room``
    Free space in the downstream VC buffer
    (``buffer_depth - (crossed[hop] - crossed[hop+1])``), plus a large
    constant once the hop is known to be final (instantaneous ejection:
    the depth check never applies).
``moved``
    Flits that crossed this channel for the holder (``crossed[hop]``).
``nxt_evt``
    The ``moved`` value at which the holder next needs Python-side
    boundary handling: ``1`` until the header arrival is processed,
    then the message length for the tail departure.
``nxt_idx`` / ``prv_idx``
    Flat slot index of the downstream / upstream segment of the same
    worm (or the sentinel slot ``N``), forming a doubly linked list per
    in-flight message.  Each flit move feeds one flit of availability
    downstream and returns one credit upstream through these links, so
    per-message ``crossed`` vectors are never touched per cycle.

The link phase is one scan-then-apply sweep over these arrays, the
per-cycle ``repro_soa_cycle`` kernel of :mod:`repro.simulator.kernel`.
``Message`` objects are only consulted at injection, header-arrival,
tail-departure and delivery boundaries, which occur twice per hop per
message rather than once per flit.

Arrival admission, FCFS virtual-channel allocation and adaptive
rerouting are inherited from the reference engine unchanged (the pools
are the same :class:`~repro.simulator.buffers.VirtualChannelPool`
objects), and both engines iterate channels in sorted id order — which
is what makes their outputs (delivered latencies, counters, per-channel
flit counts) bit-identical, a property the equivalence test suite
asserts over randomised configurations.
"""

from __future__ import annotations

import ctypes
from typing import Callable, List, Optional

import numpy as np

from repro.simulator.engine import CycleEngine, NextHopChooser
from repro.simulator.flit import Message
from repro.simulator.kernel import load_c_kernel

__all__ = ["SoACycleEngine"]

# Added to head_room once a hop is known to be final: the downstream
# depth check must never block ejection.  Far larger than any message
# length, far smaller than int32 overflow headroom.
_FINAL_BONUS = 1 << 28


class SoACycleEngine(CycleEngine):
    """Adaptive-routing engine, bit-identical to the reference.

    Takes the constructor arguments of
    :class:`~repro.simulator.engine.CycleEngine` in adaptive mode (the
    next-hop chooser is required) and exposes the same public surface
    (``counters``, ``messages``, ``pools``, ``channel_flit_counts``,
    ``step`` ...); only the per-cycle hot path differs.  Raises a
    :class:`RuntimeError` when the C kernel is unavailable.
    """

    kernel_name = "c"

    def __init__(
        self,
        num_channels: int,
        num_vcs: int,
        buffer_depth: int,
        on_delivery: Optional[Callable[[Message, int], None]] = None,
        next_hop_chooser: Optional["NextHopChooser"] = None,
    ) -> None:
        super().__init__(
            num_channels,
            num_vcs,
            buffer_depth,
            on_delivery=on_delivery,
            next_hop_chooser=next_hop_chooser,
            adaptive=True,
        )
        self._c_fn = load_c_kernel()
        if self._c_fn is None:
            raise RuntimeError("the per-cycle SoA engine needs the compiled C kernel")
        n_slots = num_channels * num_vcs
        self._n_slots = n_slots
        # Slot state; one sentinel entry at index n_slots absorbs the
        # neighbour updates of worm segments with no neighbour.
        self._avail = np.zeros(n_slots + 1, dtype=np.int32)
        self._head_room = np.zeros(n_slots + 1, dtype=np.int32)
        self._moved = np.zeros(n_slots + 1, dtype=np.int32)
        self._nxt_evt = np.zeros(n_slots + 1, dtype=np.int32)
        self._nxt_idx = np.full(n_slots + 1, n_slots, dtype=np.int32)
        self._prv_idx = np.full(n_slots + 1, n_slots, dtype=np.int32)
        self._rr = np.zeros(num_channels, dtype=np.int32)
        self._busy_cnt = np.zeros(num_channels, dtype=np.int32)
        self._slot_msg: List[Optional[Message]] = [None] * n_slots
        self._slot_hop: List[int] = [-1] * n_slots
        # Kernel scratch, so the per-cycle path allocates nothing.
        self._win_scratch = np.empty(num_channels, dtype=np.int32)
        self._evt_scratch = np.empty(num_channels, dtype=np.int32)
        self._nev_out = np.zeros(1, dtype=np.int32)
        # One context block holding scalars + raw array addresses; the
        # backing arrays are instance attributes, so the addresses stay
        # valid for the engine's lifetime.
        self._ctx = np.array(
            [
                num_channels,
                num_vcs,
                self._busy_cnt.ctypes.data,
                self._rr.ctypes.data,
                self._avail.ctypes.data,
                self._head_room.ctypes.data,
                self._moved.ctypes.data,
                self._nxt_evt.ctypes.data,
                self._nxt_idx.ctypes.data,
                self._prv_idx.ctypes.data,
                self.channel_flit_counts.ctypes.data,
                self._win_scratch.ctypes.data,
                self._evt_scratch.ctypes.data,
                self._nev_out.ctypes.data,
            ],
            dtype=np.uint64,
        )
        self._ctx_ptr = self._ctx.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64))

    # ------------------------------------------------------------------
    # Boundary bookkeeping (grants, releases, header/tail events)
    # ------------------------------------------------------------------
    def _on_grant(self, ch: int, msg: Message, hop: int, vc: int) -> None:
        msg.vcs[hop] = vc
        msg.alloc_hops = hop + 1
        slot = ch * self.num_vcs + vc
        self._slot_msg[slot] = msg
        self._slot_hop[slot] = hop
        self._moved[slot] = 0
        self._nxt_evt[slot] = 1
        self._nxt_idx[slot] = self._n_slots
        if hop == 0:
            self._avail[slot] = msg.length
            self._prv_idx[slot] = self._n_slots
        else:
            prev_slot = (
                msg.route_channels[hop - 1] * self.num_vcs + msg.vcs[hop - 1]
            )
            # Everything the upstream segment has moved is waiting in
            # this channel's input buffer; future upstream moves feed
            # this slot through the nxt link.
            self._avail[slot] = self._moved[prev_slot]
            self._prv_idx[slot] = prev_slot
            self._nxt_idx[prev_slot] = slot
        # A dynamic route learns its final hop at header arrival
        # (_process_boundary), never at a grant.
        self._head_room[slot] = self.buffer_depth
        self._busy_cnt[ch] += 1
        if hop == 0:
            self._on_injection_start(msg)

    def _release_hop(self, msg: Message, hop: int) -> None:
        vc = msg.vcs[hop]
        if vc < 0:
            raise RuntimeError(
                f"message {msg.msg_id} releasing unallocated hop {hop}"
            )
        ch = msg.route_channels[hop]
        self.pools[ch].release(vc)
        msg.vcs[hop] = -1
        self._alloc_dirty = True
        self._alloc_candidates.add(ch)
        slot = ch * self.num_vcs + vc
        self._slot_msg[slot] = None
        self._slot_hop[slot] = -1
        self._avail[slot] = 0  # a free slot must never look ready
        self._head_room[slot] = 0
        self._moved[slot] = 0
        self._nxt_evt[slot] = 0
        self._busy_cnt[ch] -= 1

    def _process_boundary(self, slot: int) -> None:
        msg = self._slot_msg[slot]
        hop = self._slot_hop[slot]
        moved = int(self._moved[slot])
        if moved == 1:
            # Header reached the next router (mirrors the reference
            # engine's _apply_moves header branch for dynamic routes).
            choice = self.next_hop_chooser(msg, hop + 1)
            if choice is None:
                msg.final_hop = hop
                self._head_room[slot] += _FINAL_BONUS
            else:
                nxt_ch, cls, impatient = choice
                msg.extend_route(nxt_ch, cls)
                self.pools[nxt_ch].request(msg.msg_id, hop + 1, cls, impatient)
                self._pending_channels.add(nxt_ch)
                self._alloc_candidates.add(nxt_ch)
                self._alloc_dirty = True
            self._nxt_evt[slot] = msg.length
        if moved == msg.length:
            # Tail crossed this channel: the upstream VC drains free,
            # and on the final hop the message completes.
            if hop >= 1:
                self._release_hop(msg, hop - 1)
                self._prv_idx[slot] = self._n_slots
            if hop == msg.final_hop:
                self._release_hop(msg, hop)
                self._complete(msg)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Run one cycle; returns the number of flits moved."""
        self._admit_arrivals()
        if self._needs_reroute:
            self._reroute_cancelled()
        if self._alloc_dirty and self._pending_channels:
            self._allocate_vcs()
        if not self.messages:
            moves = 0
        else:
            moves = int(self._c_fn(self._ctx_ptr))
            nev = int(self._nev_out[0])
            if nev:
                events = self._evt_scratch
                for i in range(nev):
                    self._process_boundary(int(events[i]))
        if moves:
            self.counters.flit_moves += moves
            self._last_progress_cycle = self.cycle
        elif self.messages:
            if self.cycle - self._last_progress_cycle > self._watchdog_cycles:
                raise RuntimeError(
                    f"no flit progress for {self._watchdog_cycles} cycles "
                    f"with {len(self.messages)} messages in flight — engine bug"
                )
        else:
            self._last_progress_cycle = self.cycle
        self.cycle += 1
        self.counters.cycles_run += 1
        return moves
