"""C kernels for the structure-of-arrays engines.

Both SoA engines keep the link-arbitration state in flat preallocated
``numpy`` int32 arrays indexed by *slot* (``channel * num_vcs + vc``).
The *link phase* of one cycle is then a fixed two-pass sweep over those
arrays:

* **pass 1 (scan)** — for every channel with held VCs, pick the first
  *ready* VC in round-robin order from the channel's cursor, using
  start-of-cycle state only (``avail > 0 and head_room > 0``);
* **pass 2 (apply)** — move one flit on every winner: bump its
  ``moved`` counter, consume one upstream flit and one downstream
  credit, and propagate the flit to the neighbouring worm segments
  through the ``nxt_idx`` / ``prv_idx`` links; slots whose ``moved``
  counter hits ``nxt_evt`` (header arrival or tail departure) are
  boundary events.

Two entry points share that link phase:

* ``repro_soa_cycle`` runs the link phase of **one cycle** and hands
  the boundary events back to Python — the per-cycle
  :class:`~repro.simulator.soa.SoACycleEngine`, which serves adaptive
  routing;
* ``repro_soa_span`` runs **every phase of a whole span of cycles** for
  deterministic routing (:class:`~repro.simulator.span.SpanEngine`).
  It is handed a window of scheduled messages (records in admission
  order, each with its arrival cycle) and admits each into its source's
  FIFO at the top of its own cycle; then come FCFS virtual-channel
  allocation, the link phase, header and tail events, VC release and
  delivery, on flat per-message records, a route pool and intrusive
  per-(channel, class) request queues.  An empty network jumps to the
  next arrival cycle.  The call returns at the span's stop (the
  window's end, the warmup edge or the end of the run) or on the
  backlog, delivery-target or watchdog exit, with a delivery log.

Both are compiled from one C source on first use with the system C
compiler into ``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro/
kernels``) and loaded through :mod:`ctypes`.  A cached shared object
that fails to load (a worker killed mid-write, a truncated artifact
from an interrupted run) is *quarantined* — renamed to ``*.corrupt``,
mirroring the sweep cache's ``corrupt/`` convention — and compilation
is retried once before degrading.  When the kernel does not load, every
run falls back to the reference
:class:`~repro.simulator.engine.CycleEngine`, which produces the same
simulation (all state is integer), only slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Tuple

__all__ = [
    "load_c_kernel",
    "load_span_kernel",
    "c_kernel_available",
    "kernel_cache_dir",
]

C_SOURCE = r"""
#include <stdint.h>

/* Added to head_room once a hop is known to be final, so the downstream
   depth check never blocks ejection (FINAL_BONUS in soa.py). */
#define FINAL_BONUS (1 << 28)

/* The link phase of one cycle over the channels set in busy (one bit
   per channel with held VCs, in words of 64).  Slot arrays have
   num_channels*num_vcs+1 entries: the last one is a write-off slot, so
   a worm segment with no neighbour links to it and the apply loop needs
   no branch.  Pass 1 reads start-of-cycle state only and pass 2 applies
   every update, so arbitration matches the reference engine's
   scan-then-apply phases.  Events come out in ascending slot order. */
static int32_t link_phase(int32_t num_words, const uint64_t *busy,
                          int32_t num_vcs, int32_t *rr,
                          int32_t *avail, int32_t *head_room,
                          int32_t *moved, const int32_t *nxt_evt,
                          const int32_t *nxt_idx, const int32_t *prv_idx,
                          int64_t *chan_flits, int32_t *win,
                          int32_t *events, int32_t *n_events)
{
    int32_t nwin = 0, nev = 0;
    for (int32_t w = 0; w < num_words; ++w) {
        for (uint64_t bits = busy[w]; bits; bits &= bits - 1) {
            int32_t c = (w << 6) + __builtin_ctzll(bits);
            int32_t base = c * num_vcs, start = rr[c];
            for (int32_t i = 0; i < num_vcs; ++i) {
                int32_t v = start + i;
                if (v >= num_vcs) v -= num_vcs;
                int32_t s = base + v;
                if (avail[s] > 0 && head_room[s] > 0) {
                    win[nwin++] = s;
                    rr[c] = (v + 1 == num_vcs) ? 0 : v + 1;
                    break;
                }
            }
        }
    }
    for (int32_t i = 0; i < nwin; ++i) {
        int32_t s = win[i];
        int32_t m = ++moved[s];
        --avail[s];
        --head_room[s];
        ++avail[nxt_idx[s]];
        ++head_room[prv_idx[s]];
        ++chan_flits[s / num_vcs];
        if (m == nxt_evt[s]) events[nev++] = s;
    }
    *n_events = nev;
    return nwin;
}

/* One cycle's link phase for the per-cycle engine.  All arguments
   arrive through one context block of scalars and raw array addresses
   (_CTX_LAYOUT in kernel.py), which keeps the per-call ctypes cost
   flat. */
int64_t repro_soa_cycle(const uint64_t *ctx)
{
    int32_t num_channels = (int32_t) ctx[0];
    const int32_t *busy_cnt = (const int32_t *) ctx[2];
    int32_t nw = (num_channels + 63) >> 6;
    uint64_t busy[nw];
    for (int32_t w = 0; w < nw; ++w) busy[w] = 0;
    for (int32_t c = 0; c < num_channels; ++c)
        if (busy_cnt[c]) busy[c >> 6] |= 1ull << (c & 63);
    return link_phase(nw, busy, (int32_t) ctx[1], (int32_t *) ctx[3],
                      (int32_t *) ctx[4], (int32_t *) ctx[5],
                      (int32_t *) ctx[6], (const int32_t *) ctx[7],
                      (const int32_t *) ctx[8], (const int32_t *) ctx[9],
                      (int64_t *) ctx[10], (int32_t *) ctx[11],
                      (int32_t *) ctx[12], (int32_t *) ctx[13]);
}

/* ---- the whole-span kernel -------------------------------------------

   Message records are REC_FIELDS int32s (SPAN_RECORD_FIELDS in
   kernel.py); route pool entries are channel * 2 + dateline class,
   which is also the index of that (channel, class) request queue.  A
   message has at most one pending request (its header's next hop), so
   each queue is an intrusive FCFS list through R_RNEXT, and each
   source's injection FIFO one through R_SNEXT.  Free VCs of a
   (channel, class) form a stack in fstack, lowest VC on top at the
   start; a release pushes, a grant pops.  Channels holding VCs are
   kept as a bitmap (busy) for the link phase, and channels to visit in
   the next allocation pass as another (mark).  Run state that outlives
   one call lives in the int64 io block (SPAN_IO_LAYOUT in kernel.py). */
enum { R_SRC, R_LEN, R_ROFF, R_NHOPS, R_HSLOT, R_SNEXT, R_RNEXT, REC_FIELDS };
enum { IO_CYCLE, IO_STOP, IO_BACKLOG, IO_TARGET, IO_ADMIT_NEXT, IO_ADMIT_END,
       IO_GENERATED, IO_COMPLETED, IO_FLITS, IO_CYCLES_RUN, IO_STEPPED,
       IO_PROGRESS, IO_WATCHDOG, IO_DELIVERED, IO_DIRTY, IO_PENDING, IO_PASS,
       IO_HELD };

typedef struct {
    int32_t nch, nvc, split, depth, nslot, cur;
    int32_t *busy_cnt, *rr, *avail, *head_room, *moved, *nxt_evt;
    int32_t *nxt_idx, *prv_idx, *win, *events, *slot_rec, *slot_hop, *rec;
    const int32_t *route;
    int32_t *src_head, *src_tail, *q_head, *q_tail, *pend, *fstack, *ftop;
    int32_t *log_rec;
    uint64_t *mark, *pass, *busy;
    int64_t *chan_flits, *stamp, *log_cyc;
    int64_t pass_id, npend, held, nlog, dirty;
} span_t;

/* Queue r's request for its route hop `hop` and note the channel for
   allocation.  Outside a pass the channel is marked for the next one.
   During a pass (cur >= 0 is the channel being visited) it joins the
   running pass instead iff its id is above cur, it is not in the pass
   yet, and it had pending requests when the pass began; stamp keeps
   that start state from the channel's first mid-pass request. */
static void request(span_t *k, int32_t r, int32_t hop)
{
    int32_t *rec = k->rec + (int64_t) r * REC_FIELDS;
    int32_t q = k->route[rec[R_ROFF] + hop];
    int32_t ch = q >> 1, w = ch >> 6;
    uint64_t bit = 1ull << (ch & 63);
    rec[R_RNEXT] = -1;
    if (k->q_tail[q] < 0) k->q_head[q] = r;
    else k->rec[(int64_t) k->q_tail[q] * REC_FIELDS + R_RNEXT] = r;
    k->q_tail[q] = r;
    if (k->cur >= 0 && (k->stamp[ch] >> 1) != k->pass_id)
        k->stamp[ch] = (k->pass_id << 1) | (k->pend[ch] > 0);
    if (k->cur >= 0 && ch > k->cur && (k->stamp[ch] & 1)
        && !(k->pass[w] & bit))
        k->pass[w] |= bit;
    else
        k->mark[w] |= bit;
    ++k->pend[ch];
    ++k->npend;
    k->dirty = 1;
}

/* Give VC vc of channel ch to message r for its next hop; an injection
   grant pops the source FIFO and the next head requests its first hop. */
static void grant(span_t *k, int32_t ch, int32_t vc, int32_t r)
{
    int32_t *rec = k->rec + (int64_t) r * REC_FIELDS;
    int32_t s = ch * k->nvc + vc, prev = rec[R_HSLOT];
    int32_t hop = prev < 0 ? 0 : k->slot_hop[prev] + 1;
    k->slot_rec[s] = r;
    k->slot_hop[s] = hop;
    k->moved[s] = 0;
    k->nxt_evt[s] = 1;
    k->nxt_idx[s] = k->nslot;
    if (prev < 0) {
        k->avail[s] = rec[R_LEN];
        k->prv_idx[s] = k->nslot;
    } else {
        k->avail[s] = k->moved[prev];
        k->prv_idx[s] = prev;
        k->nxt_idx[prev] = s;
    }
    k->head_room[s] = k->depth + (hop == rec[R_NHOPS] - 1 ? FINAL_BONUS : 0);
    if (k->busy_cnt[ch]++ == 0) k->busy[ch >> 6] |= 1ull << (ch & 63);
    ++k->held;
    rec[R_HSLOT] = s;
    if (prev < 0) {
        int32_t src = rec[R_SRC], nx = rec[R_SNEXT];
        k->src_head[src] = nx;
        if (nx < 0) k->src_tail[src] = -1;
        else request(k, nx, 0);
    }
}

static void release(span_t *k, int32_t s)
{
    int32_t ch = s / k->nvc, vc = s - ch * k->nvc;
    int32_t cls = vc >= k->split;
    k->fstack[ch * k->nvc + (cls ? k->split : 0) + k->ftop[2 * ch + cls]++] = vc;
    k->mark[ch >> 6] |= 1ull << (ch & 63);
    k->dirty = 1;
    k->slot_rec[s] = -1;
    k->slot_hop[s] = -1;
    k->avail[s] = 0;
    k->head_room[s] = 0;
    k->moved[s] = 0;
    k->nxt_evt[s] = 0;
    if (--k->busy_cnt[ch] == 0) k->busy[ch >> 6] &= ~(1ull << (ch & 63));
    --k->held;
}

/* One FCFS allocation pass over the marked channels in ascending id:
   class 0 then class 1, granting while a VC of the class is free. */
static void alloc_pass(span_t *k)
{
    int32_t nw = (k->nch + 63) >> 6;
    k->dirty = 0;
    ++k->pass_id;
    for (int32_t w = 0; w < nw; ++w) {
        k->pass[w] = k->mark[w];
        k->mark[w] = 0;
    }
    for (int32_t w = 0; w < nw; ++w) {
        while (k->pass[w]) {
            uint64_t bits = k->pass[w];
            int32_t ch = (w << 6) + __builtin_ctzll(bits);
            k->pass[w] = bits & (bits - 1);
            k->cur = ch;
            for (int32_t cls = 0; cls < 2; ++cls) {
                int32_t q = 2 * ch + cls;
                int32_t *stack = k->fstack + ch * k->nvc + (cls ? k->split : 0);
                while (k->q_head[q] >= 0 && k->ftop[q] > 0) {
                    int32_t r = k->q_head[q];
                    int32_t nx = k->rec[(int64_t) r * REC_FIELDS + R_RNEXT];
                    k->q_head[q] = nx;
                    if (nx < 0) k->q_tail[q] = -1;
                    --k->pend[ch];
                    --k->npend;
                    grant(k, ch, stack[--k->ftop[q]], r);
                }
            }
        }
    }
    k->cur = -1;
}

/* Header arrival (moved == 1) requests the next hop; tail departure
   (moved == length) frees the upstream VC, and on the final hop also
   this one, logging the delivery.  With length 1 both run. */
static void boundary(span_t *k, int32_t s, int64_t cyc)
{
    int32_t r = k->slot_rec[s], hop = k->slot_hop[s], m = k->moved[s];
    int32_t len = k->rec[(int64_t) r * REC_FIELDS + R_LEN];
    int32_t last = k->rec[(int64_t) r * REC_FIELDS + R_NHOPS] - 1;
    if (m == 1) {
        if (hop < last) request(k, r, hop + 1);
        k->nxt_evt[s] = len;
    }
    if (m == len) {
        if (hop >= 1) {
            release(k, k->prv_idx[s]);
            k->prv_idx[s] = k->nslot;
        }
        if (hop == last) {
            release(k, s);
            k->log_rec[k->nlog] = r;
            k->log_cyc[k->nlog++] = cyc;
        }
    }
}

/* Put record r at the back of its source's injection FIFO; a record
   that becomes the head requests its first hop. */
static void admit(span_t *k, int32_t r)
{
    int32_t *rec = k->rec + (int64_t) r * REC_FIELDS;
    int32_t src = rec[R_SRC];
    rec[R_HSLOT] = -1;
    rec[R_SNEXT] = -1;
    if (k->src_tail[src] < 0) {
        k->src_head[src] = r;
        k->src_tail[src] = r;
        request(k, r, 0);
    } else {
        k->rec[(int64_t) k->src_tail[src] * REC_FIELDS + R_SNEXT] = r;
        k->src_tail[src] = r;
    }
}

/* Run cycles from io[IO_CYCLE] until io[IO_STOP].  A cycle first admits
   the records of admit[io[IO_ADMIT_NEXT] .. io[IO_ADMIT_END]) whose
   arrival cycle (admit_cyc, ascending) has come, in order; then comes
   an allocation pass when a request or release happened since the last
   one and a request is pending, the link phase, and the boundary events
   in ascending slot order.  The span ends early after a cycle whose
   backlog exceeds io[IO_BACKLOG] or whose deliveries reach
   io[IO_TARGET]; an empty network jumps to the next arrival cycle or
   the stop.  Returns -1 if no flit moved for io[IO_WATCHDOG] cycles
   with messages in flight, else 0.  See SPAN_CTX_LAYOUT in kernel.py
   for the context block. */
int64_t repro_soa_span(const uint64_t *ctx)
{
    span_t k;
    int64_t *io = (int64_t *) ctx[4];
    const int32_t *adm = (const int32_t *) ctx[20];
    const int64_t *adm_cyc = (const int64_t *) ctx[34];
    k.nch = (int32_t) ctx[0];
    k.nvc = (int32_t) ctx[1];
    k.split = (int32_t) ctx[2];
    k.depth = (int32_t) ctx[3];
    k.busy_cnt = (int32_t *) ctx[5];
    k.rr = (int32_t *) ctx[6];
    k.avail = (int32_t *) ctx[7];
    k.head_room = (int32_t *) ctx[8];
    k.moved = (int32_t *) ctx[9];
    k.nxt_evt = (int32_t *) ctx[10];
    k.nxt_idx = (int32_t *) ctx[11];
    k.prv_idx = (int32_t *) ctx[12];
    k.chan_flits = (int64_t *) ctx[13];
    k.win = (int32_t *) ctx[14];
    k.events = (int32_t *) ctx[15];
    k.slot_rec = (int32_t *) ctx[16];
    k.slot_hop = (int32_t *) ctx[17];
    k.rec = (int32_t *) ctx[18];
    k.route = (const int32_t *) ctx[19];
    k.src_head = (int32_t *) ctx[21];
    k.src_tail = (int32_t *) ctx[22];
    k.q_head = (int32_t *) ctx[23];
    k.q_tail = (int32_t *) ctx[24];
    k.pend = (int32_t *) ctx[25];
    k.fstack = (int32_t *) ctx[26];
    k.ftop = (int32_t *) ctx[27];
    k.mark = (uint64_t *) ctx[28];
    k.pass = (uint64_t *) ctx[29];
    k.stamp = (int64_t *) ctx[30];
    k.log_rec = (int32_t *) ctx[31];
    k.log_cyc = (int64_t *) ctx[32];
    k.busy = (uint64_t *) ctx[33];
    k.nslot = k.nch * k.nvc;
    k.cur = -1;
    k.nlog = 0;
    k.pass_id = io[IO_PASS];
    k.npend = io[IO_PENDING];
    k.held = io[IO_HELD];
    k.dirty = io[IO_DIRTY];

    int64_t cyc = io[IO_CYCLE], stop = io[IO_STOP];
    int64_t next = io[IO_ADMIT_NEXT], end = io[IO_ADMIT_END];
    int64_t generated = io[IO_GENERATED], completed = io[IO_COMPLETED];
    int64_t flits = io[IO_FLITS], cycles_run = io[IO_CYCLES_RUN];
    int64_t stepped = io[IO_STEPPED], progress = io[IO_PROGRESS], status = 0;
    while (cyc < stop) {
        int32_t moves = 0, nev = 0;
        for (; next < end && adm_cyc[next] <= cyc; ++next) {
            admit(&k, adm[next]);
            ++generated;
        }
        if (k.dirty && k.npend > 0) alloc_pass(&k);
        if (k.held > 0)
            moves = link_phase((k.nch + 63) >> 6, k.busy, k.nvc, k.rr,
                               k.avail, k.head_room, k.moved, k.nxt_evt,
                               k.nxt_idx, k.prv_idx, k.chan_flits, k.win,
                               k.events, &nev);
        for (int32_t i = 0; i < nev; ++i) boundary(&k, k.events[i], cyc);
        int64_t inflight = generated - completed - k.nlog;
        flits += moves;
        if (moves) {
            progress = cyc;
        } else if (inflight) {
            if (cyc - progress > io[IO_WATCHDOG]) {
                status = -1;
                break;
            }
        } else {
            progress = cyc;
        }
        ++cyc;
        ++cycles_run;
        ++stepped;
        if (inflight > io[IO_BACKLOG] || k.nlog >= io[IO_TARGET]) break;
        if (inflight == 0) {
            int64_t to = next < end && adm_cyc[next] < stop ? adm_cyc[next] : stop;
            if (cyc < to) {
                cycles_run += to - cyc;
                cyc = to;
                progress = to;
            }
        }
    }
    io[IO_CYCLE] = cyc;
    io[IO_ADMIT_NEXT] = next;
    io[IO_GENERATED] = generated;
    io[IO_COMPLETED] = completed + k.nlog;
    io[IO_FLITS] = flits;
    io[IO_CYCLES_RUN] = cycles_run;
    io[IO_STEPPED] = stepped;
    io[IO_PROGRESS] = progress;
    io[IO_DELIVERED] = k.nlog;
    io[IO_DIRTY] = k.dirty;
    io[IO_PENDING] = k.npend;
    io[IO_PASS] = k.pass_id;
    io[IO_HELD] = k.held;
    return status;
}
"""

#: Context-block layout of ``repro_soa_cycle``: two scalars followed by
#: the raw base addresses of the state arrays, as unsigned 64-bit
#: values.  Must match the ctx[...] casts in C_SOURCE.
_CTX_LAYOUT = (
    "num_channels",
    "num_vcs",
    "busy_cnt",
    "rr",
    "avail",
    "head_room",
    "moved",
    "nxt_evt",
    "nxt_idx",
    "prv_idx",
    "chan_flits",
    "win_slots",
    "events_out",
    "n_events_out",
)

#: Context-block layout of ``repro_soa_span``: four scalars, then array
#: base addresses.  Must match the ctx[...] casts in ``repro_soa_span``.
SPAN_CTX_LAYOUT = (
    "num_channels",
    "num_vcs",
    "split",
    "buffer_depth",
    "io",
    "busy_cnt",
    "rr",
    "avail",
    "head_room",
    "moved",
    "nxt_evt",
    "nxt_idx",
    "prv_idx",
    "chan_flits",
    "win",
    "events",
    "slot_rec",
    "slot_hop",
    "rec",
    "route",
    "admit",
    "src_head",
    "src_tail",
    "q_head",
    "q_tail",
    "pend",
    "fstack",
    "ftop",
    "mark",
    "pass_bits",
    "stamp",
    "log_rec",
    "log_cyc",
    "busy_bits",
    "admit_cyc",
)

#: Fields of one span-kernel message record (int32 each); the R_* enum
#: in C_SOURCE.
SPAN_RECORD_FIELDS = (
    "src",
    "length",
    "route_offset",
    "hops",
    "head_slot",
    "source_next",
    "request_next",
)

#: The span kernel's int64 run-state block; the IO_* enum in C_SOURCE.
SPAN_IO_LAYOUT = (
    "cycle",
    "stop",
    "backlog_limit",
    "target",
    "admit_next",
    "admit_end",
    "generated",
    "completed",
    "flit_moves",
    "cycles_run",
    "stepped",
    "last_progress",
    "watchdog",
    "delivered",
    "dirty",
    "pending",
    "pass_id",
    "held",
)

_ARGTYPES = [ctypes.POINTER(ctypes.c_uint64)]

#: ``(cycle_fn, span_fn)`` once loaded, else ``None``.
_loaded: Optional[Tuple[object, object]] = None
_load_attempted = False


def kernel_cache_dir() -> Path:
    """Directory holding compiled kernels (``$REPRO_KERNEL_CACHE``)."""
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "kernels"


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a unique tmp file + atomic rename.

    Pool workers may race to materialise the same cache file; each
    writer lands its complete content in one ``os.replace``, so readers
    (and the compiler) never see a half-written file.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=path.suffix + ".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _compile(cache_dir: Path, so_path: Path) -> None:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (set CC to override)")
    cache_dir.mkdir(parents=True, exist_ok=True)
    src = cache_dir / (so_path.stem + ".c")
    _write_atomic(src, C_SOURCE)
    # Unique tmp per process: pool workers may compile concurrently, and
    # the final rename is atomic so they cannot corrupt each other.
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".so.tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O1", "-shared", "-fPIC", "-o", tmp, str(src)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _quarantine_so(so_path: Path) -> None:
    """Move an unloadable shared object aside as ``*.corrupt``.

    Mirrors the sweep cache's quarantine convention: the damaged
    artifact stays on disk for inspection instead of permanently
    poisoning the cache slot.  Best-effort — a failed rename falls back
    to deletion so the retry compile gets a clean slot either way.
    """
    try:
        so_path.replace(so_path.with_suffix(".so.corrupt"))
    except OSError:
        try:
            so_path.unlink()
        except OSError:
            pass


def _load_functions(so_path: Path) -> Tuple[object, object]:
    """CDLL + typed handles for both kernel entry points."""
    lib = ctypes.CDLL(str(so_path))
    fns = []
    for name in ("repro_soa_cycle", "repro_soa_span"):
        fn = getattr(lib, name)
        fn.argtypes = _ARGTYPES
        fn.restype = ctypes.c_int64
        fns.append(fn)
    return fns[0], fns[1]


def _load() -> Optional[Tuple[object, object]]:
    """Compile (if needed) and load both kernels, once per process.

    Any failure — no compiler, sandboxed filesystem, unloadable object —
    degrades to ``None`` and every run falls back to the reference
    engine, with a once-per-process :class:`RuntimeWarning` naming the
    actual failure so a missing compiler shows up as a warning instead
    of silently masquerading as a ~5x performance regression.

    A cached ``.so`` that exists but will not load (truncated by a
    killed worker, stale from an interrupted run) is quarantined as
    ``*.corrupt`` and compilation retried once before degrading.
    """
    global _loaded, _load_attempted
    if _load_attempted:
        return _loaded
    _load_attempted = True
    tag = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    so_path = kernel_cache_dir() / f"repro_soa_{tag}.so"
    try:
        existed = so_path.exists()
        if not existed:
            _compile(kernel_cache_dir(), so_path)
        try:
            _loaded = _load_functions(so_path)
        except (OSError, AttributeError) as exc:
            if not existed:
                raise
            # The cached artifact is corrupt: quarantine it and rebuild
            # once rather than disabling the C kernel for the process.
            _quarantine_so(so_path)
            try:
                _compile(kernel_cache_dir(), so_path)
                _loaded = _load_functions(so_path)
            except Exception:
                raise RuntimeError(
                    f"cached kernel {so_path.name} was corrupt "
                    f"({type(exc).__name__}: {exc}) and recompilation "
                    "failed"
                ) from exc
    except subprocess.CalledProcessError as exc:
        stderr = (exc.stderr or b"").decode(errors="replace").strip()
        _warn_kernel_fallback(f"compilation failed: {stderr or exc}")
        _loaded = None
    except Exception as exc:
        _warn_kernel_fallback(f"{type(exc).__name__}: {exc}")
        _loaded = None
    return _loaded


def load_c_kernel() -> Optional[object]:
    """The compiled per-cycle ``repro_soa_cycle``, or ``None``."""
    fns = _load()
    return None if fns is None else fns[0]


def load_span_kernel() -> Optional[object]:
    """The compiled whole-span ``repro_soa_span``, or ``None``."""
    fns = _load()
    return None if fns is None else fns[1]


def _warn_kernel_fallback(reason: str) -> None:
    """One warning per process when the C kernels do not load."""
    warnings.warn(
        f"repro: SoA C kernel unavailable ({reason}); falling back to the "
        "slower reference engine (CycleEngine).  Install a C compiler (or "
        "set CC) to restore full speed.",
        RuntimeWarning,
        stacklevel=3,
    )


def c_kernel_available() -> bool:
    return load_c_kernel() is not None
