"""Per-cycle structure-of-arrays engine: adaptive routing and fallback.

:class:`SoACycleEngine` runs the same four-phase wormhole simulation as
the reference :class:`~repro.simulator.engine.CycleEngine`, one Python
``step`` per cycle, but the link phase — per-cycle readiness checks and
flit moves — operates on flat preallocated ``numpy`` int32 arrays
instead of per-message ``Message`` objects and per-pool Python lists.
Deterministic runs use the whole-span engine
(:class:`~repro.simulator.span.SpanEngine`) when the C kernel compiles;
this engine serves adaptive routing, whose next hops are chosen in
Python, and every run on a host without a C compiler or under
``REPRO_SOA_KERNEL=numpy``.  All arrays are indexed by *slot*
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

The link phase is one scan-then-apply sweep over these arrays — the
per-cycle C kernel from :mod:`repro.simulator.kernel` when a compiler is
available (set ``REPRO_SOA_KERNEL=numpy`` to force the pure-numpy
fallback, ``c`` to require the C kernel).  ``Message`` objects are only consulted at
injection, header-arrival, tail-departure and delivery boundaries,
which occur twice per hop per message rather than once per flit.

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
import os
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.simulator.engine import CycleEngine, NextHopChooser
from repro.simulator.flit import Message
from repro.simulator.kernel import load_c_kernel

__all__ = ["SoACycleEngine", "resolve_soa_kernel"]

# Added to head_room once a hop is known to be final: the downstream
# depth check must never block ejection.  Far larger than any message
# length, far smaller than int32 overflow headroom.
_FINAL_BONUS = 1 << 28

_EMPTY_EVENTS = np.empty(0, dtype=np.int32)


def resolve_soa_kernel(kernel: str = "auto") -> str:
    """Which SoA kernel to use: ``"c"`` or ``"numpy"``.

    The ``kernel`` argument and ``$REPRO_SOA_KERNEL`` are normalised
    identically (case- and whitespace-insensitive, empty means
    ``auto``); a non-``auto`` argument wins, ``auto`` defers to the
    environment variable.  Raises a :class:`ValueError` naming the
    offending source on bad input, or a :class:`RuntimeError` when
    ``c`` is forced but unavailable.
    """
    raw = str(kernel).strip().lower() or "auto"
    if raw not in ("auto", "c", "numpy"):
        raise ValueError(
            f"kernel must be 'auto', 'c' or 'numpy', got {kernel!r}"
        )
    if raw == "auto":
        raw = (
            os.environ.get("REPRO_SOA_KERNEL", "auto").strip().lower()
            or "auto"
        )
        if raw not in ("auto", "c", "numpy"):
            raise ValueError(
                f"REPRO_SOA_KERNEL must be 'auto', 'c' or 'numpy', got {raw!r}"
            )
    if raw == "numpy":
        return "numpy"
    if load_c_kernel() is not None:
        return "c"
    if raw == "c":
        raise RuntimeError(
            "the C kernel was forced (REPRO_SOA_KERNEL=c or kernel='c') "
            "but could not be compiled (no C compiler on PATH?)"
        )
    return "numpy"


class SoACycleEngine(CycleEngine):
    """Structure-of-arrays engine, bit-identical to the reference.

    Accepts the same constructor arguments as
    :class:`~repro.simulator.engine.CycleEngine` and exposes the same
    public surface (``counters``, ``messages``, ``pools``,
    ``channel_flit_counts``, ``step`` ...); only the per-cycle hot path
    differs.  :attr:`kernel_name` reports which kernel drives it.
    """

    def __init__(
        self,
        num_channels: int,
        num_vcs: int,
        buffer_depth: int,
        on_delivery: Optional[Callable[[Message, int], None]] = None,
        next_hop_chooser: Optional["NextHopChooser"] = None,
        adaptive: bool = False,
    ) -> None:
        super().__init__(
            num_channels,
            num_vcs,
            buffer_depth,
            on_delivery=on_delivery,
            next_hop_chooser=next_hop_chooser,
            adaptive=adaptive,
        )
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
        # Persistent views/scratch so the per-cycle path allocates nothing.
        self._avail_v = self._avail[:n_slots]
        self._head_v = self._head_room[:n_slots]
        self._best = np.empty(num_channels, dtype=np.int32)
        self._vcsel = np.empty(num_channels, dtype=np.int32)
        self._win_scratch = np.empty(num_channels, dtype=np.int32)
        self._evt_scratch = np.empty(num_channels, dtype=np.int32)
        self._nev_out = np.zeros(1, dtype=np.int32)
        self.kernel_name = resolve_soa_kernel()
        self._c_fn = load_c_kernel() if self.kernel_name == "c" else None
        if self._c_fn is not None:
            # One context block holding scalars + raw array addresses;
            # the backing arrays are instance attributes, so the
            # addresses stay valid for the engine's lifetime.
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
            self._ctx_ptr = self._ctx.ctypes.data_as(
                ctypes.POINTER(ctypes.c_uint64)
            )

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
        room = self.buffer_depth
        if hop == msg.final_hop:
            room += _FINAL_BONUS
        self._head_room[slot] = room
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
            # engine's _apply_moves header branch).
            if msg.dynamic:
                choice = self.next_hop_chooser(msg, hop + 1)
                if choice is None:
                    msg.final_hop = hop
                    self._head_room[slot] += _FINAL_BONUS
                else:
                    nxt_ch, cls, impatient = choice
                    msg.extend_route(nxt_ch, cls)
                    self.pools[nxt_ch].request(
                        msg.msg_id, hop + 1, cls, impatient
                    )
                    self._pending_channels.add(nxt_ch)
                    self._alloc_candidates.add(nxt_ch)
                    self._alloc_dirty = True
            elif hop + 1 < msg.num_hops:
                nxt_ch = msg.route_channels[hop + 1]
                self.pools[nxt_ch].request(
                    msg.msg_id, hop + 1, msg.route_classes[hop + 1]
                )
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
    # The per-cycle kernels
    # ------------------------------------------------------------------
    def _cycle_numpy(self) -> Tuple[int, np.ndarray]:
        """Pure-numpy scan + apply (same integer semantics as the C kernel)."""
        num_vcs = self.num_vcs
        avail = self._avail
        head = self._head_room
        ready = (self._avail_v > 0) & (self._head_v > 0)
        rdy = ready.reshape(self.num_channels, num_vcs)
        rr = self._rr
        if num_vcs == 2:
            # Two VCs need no priority search: the cursor only matters
            # when both are ready.
            r0 = rdy[:, 0]
            r1 = rdy[:, 1]
            wch = np.flatnonzero(r0 | r1)
            if wch.size == 0:
                return 0, _EMPTY_EVENTS
            wvc = np.where(r0 & r1, rr, r1)[wch]
        else:
            best = self._best
            best[:] = num_vcs
            vcsel = self._vcsel
            vcsel[:] = 0
            for v in range(num_vcs):
                rel = (v - rr) % num_vcs
                pri = np.where(rdy[:, v], rel, num_vcs)
                upd = pri < best
                vcsel[upd] = v
                best[upd] = pri[upd]
            wch = np.flatnonzero(best < num_vcs)
            if wch.size == 0:
                return 0, _EMPTY_EVENTS
            wvc = vcsel[wch]
        wf = wch * num_vcs + wvc
        rr[wch] = (wvc + 1) % num_vcs
        mv = self._moved[wf] + 1
        self._moved[wf] = mv
        avail[wf] = avail[wf] - 1
        head[wf] = head[wf] - 1
        # Winner slots are unique, and so are their live neighbours; the
        # sentinel absorbs repeated no-neighbour updates harmlessly.
        nxt = self._nxt_idx[wf]
        avail[nxt] = avail[nxt] + 1
        prv = self._prv_idx[wf]
        head[prv] = head[prv] + 1
        self.channel_flit_counts[wch] += 1
        return int(wf.size), wf[mv == self._nxt_evt[wf]]

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
        fn = self._c_fn
        if not self.messages:
            moves = 0
        elif fn is not None:
            moves = int(fn(self._ctx_ptr))
            nev = int(self._nev_out[0])
            if nev:
                events = self._evt_scratch
                for i in range(nev):
                    self._process_boundary(int(events[i]))
        else:
            moves, events = self._cycle_numpy()
            if events.size:
                for slot in events.tolist():
                    self._process_boundary(slot)
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
