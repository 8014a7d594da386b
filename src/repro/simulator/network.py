"""Workload wiring: topology + traffic pattern + cycle engine.

:class:`TorusWorkload` owns arrival generation (Poisson by default,
bursty models via ``arrival_model``), destination draws, routes,
hot/regular classification and the delivery statistics, and drives one
of three bit-identical engines through one loop, :meth:`TorusWorkload.run`.

Arrivals are generated one *window* of cycles at a time, in numpy, from
one random stream per point: every random number of a run comes from
one generator, ``np.random.default_rng(config.seed)``, in this order:

1. when the workload is built, the first inter-arrival gap of every
   source, in one :meth:`~repro.traffic.burst.ArrivalModel.sample_gaps`
   call over all sources in rank order;
2. per window ``[start, end)``, in rounds: every source whose next
   arrival falls before ``end`` emits it, and all of them draw their
   following gap in one ``sample_gaps`` call (rank order); the rounds
   repeat until no source's next arrival falls before ``end``;
3. then the window's arrivals, merged by (time, source), draw their
   destinations in that order in one
   :meth:`~repro.traffic.patterns.DestinationPattern.draw_many` call.

Nothing else draws from the generator, so a run is fully determined by
``config.seed`` for any engine and job count.  A window spans
about ``backlog_limit / (N * rate)`` cycles — about as many arrivals as
the backlog exit tolerates — so an overloaded point draws at most about
one window it never admits, and the workload holds O(window) arrivals,
not O(run).  Routes of the window's new (source, destination) pairs
come from one vectorised
:meth:`~repro.simulator.router.RouteTable.routes` call.

Deliveries reach the statistics as arrays, through one method,
:meth:`TorusWorkload._record_deliveries`: the span engine's delivery
log once per call, the per-cycle engines' deliveries when the run ends.
It folds them into exact integer accumulators
(:mod:`repro.simulator.stats`), so no Python runs per message on the
span path.

The engine follows from the routing mode and from whether the C kernel
loads, and nothing else:

* deterministic routing runs on the whole-span kernel
  (:class:`~repro.simulator.span.SpanEngine`), which takes the whole
  window in one :meth:`~repro.simulator.span.SpanEngine.schedule` call
  and admits each message at its own cycle in C, with no ``Message``
  objects;
* adaptive routing runs on the per-cycle structure-of-arrays engine
  with the C link phase (:class:`~repro.simulator.soa.SoACycleEngine`),
  which is handed each cycle's arrivals as ``Message`` objects built at
  that cycle, because an adaptive first hop is chosen against the live
  network;
* a host where the kernel does not load runs both routing modes on the
  object engine (:class:`~repro.simulator.engine.CycleEngine`), fed like
  the per-cycle engine.

The engines differ only in how far ahead arrivals are handed over.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.simulator.config import SimulationConfig
from repro.traffic.burst import ArrivalModel, ExponentialArrivals
from repro.simulator.engine import CycleEngine
from repro.simulator.flit import Message
from repro.simulator.kernel import c_kernel_available
from repro.simulator.soa import SoACycleEngine
from repro.simulator.span import SpanEngine
from repro.simulator.router import RouteTable
from repro.simulator.stats import BatchMeans, LatencyStats
from repro.topology.kary_ncube import KAryNCube
from repro.traffic.patterns import DestinationPattern, HotSpotPattern, UniformPattern

__all__ = ["TorusWorkload"]


class TorusWorkload:
    """Drives a cycle engine with the paper's workload on a k-ary n-cube.

    Parameters
    ----------
    config:
        Run parameters.
    pattern:
        Optional destination pattern override; by default the pattern is
        built from ``config`` (:class:`HotSpotPattern` when
        ``hotspot_fraction > 0`` else :class:`UniformPattern`).
    arrival_model:
        Optional per-source arrival process (defaults to the paper's
        Poisson assumption,
        :class:`~repro.traffic.burst.ExponentialArrivals` at
        ``config.rate``).  Bursty alternatives live in
        :mod:`repro.traffic.burst`.
    """

    def __init__(
        self,
        config: SimulationConfig,
        pattern: Optional[DestinationPattern] = None,
        arrival_model: Optional[ArrivalModel] = None,
    ) -> None:
        self.config = config
        self.network = KAryNCube(
            k=config.k, n=config.n, bidirectional=config.bidirectional
        )
        self.routes = RouteTable(self.network)
        if pattern is None:
            if config.hotspot_fraction > 0.0:
                pattern = HotSpotPattern(
                    self.network,
                    config.hotspot_fraction,
                    config.hotspot_node,
                )
            else:
                pattern = UniformPattern(self.network)
        self.pattern = pattern
        self.rng = np.random.default_rng(config.seed)
        num_nodes = self.network.num_nodes
        # With explicit ejection modelling, every node owns one more
        # channel (id = num_network_channels + node rank) into its PE.
        self._num_network_channels = self.routes.num_channels
        total_channels = self._num_network_channels + (
            num_nodes if config.model_ejection else 0
        )
        self._adaptive = config.routing == "adaptive"
        shape = dict(
            num_channels=total_channels,
            num_vcs=config.num_vcs,
            buffer_depth=config.buffer_depth,
        )
        if not c_kernel_available():
            self.engine = CycleEngine(
                on_delivery=self._on_delivery,
                next_hop_chooser=self._choose_next_hop if self._adaptive else None,
                adaptive=self._adaptive,
                **shape,
            )
        elif self._adaptive:
            self.engine = SoACycleEngine(
                on_delivery=self._on_delivery,
                next_hop_chooser=self._choose_next_hop,
                **shape,
            )
        else:
            self.engine = SpanEngine(
                num_sources=num_nodes, on_deliveries=self._on_deliveries, **shape
            )
        # The span engine takes a whole window of arrivals at once.
        self._bulk = isinstance(self.engine, SpanEngine)
        # Arrival stream: the workload's copy of the arrival model and
        # every source's next arrival time (inf: none to come).
        effective_rate = (
            arrival_model.mean_rate if arrival_model is not None else config.rate
        )
        if arrival_model is None and config.rate > 0.0:
            arrival_model = ExponentialArrivals(config.rate)
        self.effective_rate = effective_rate
        self._arrivals: Optional[ArrivalModel] = None
        self._next = np.full(num_nodes, np.inf)
        self._window_cycles = config.total_cycles
        if arrival_model is not None and effective_rate > 0.0:
            self._arrivals = arrival_model.fresh(num_nodes)
            self._next = self._arrivals.sample_gaps(np.arange(num_nodes), self.rng)
            backlog_limit = config.saturation_backlog_factor * num_nodes
            self._window_cycles = max(
                1, math.ceil(backlog_limit / (num_nodes * effective_rate))
            )
        # The open window: its arrivals in admission order and the index
        # of the first one not handed to the engine yet.
        self._win_end = 0
        self._win_first_id = 0
        self._win_next = 0
        self._win_time = np.empty(0)
        self._win_cycle = np.empty(0, dtype=np.int64)
        self._win_src = np.empty(0, dtype=np.int64)
        self._win_dst = np.empty(0, dtype=np.int64)
        self._win_pair = np.empty(0, dtype=np.int64)
        self._win_msgs: List[tuple] = []
        # Routed (source, destination) pairs: sorted keys src * N + dst
        # with their pair ids, and per pair id its hop count, hot flag
        # and (per-cycle engines) route lists.
        self._pair_keys = np.empty(0, dtype=np.int64)
        self._pair_key_ids = np.empty(0, dtype=np.int64)
        self._pair_hops = np.empty(0, dtype=np.int64)
        self._pair_hot = np.empty(0, dtype=bool)
        self._pair_routes: List[Tuple[List[int], List[int]]] = []
        # Statistics, and the per-cycle engines' deliveries not folded
        # into them yet.
        self.warmup_end = config.warmup_cycles
        self.all_stats = LatencyStats()
        self.regular_stats = LatencyStats()
        self.hot_stats = LatencyStats()
        self.batches = BatchMeans(batch_size=200)
        self._delivered: List[Tuple[int, int, int, int, bool]] = []
        self.measured_generated = 0
        self._flits_at_warmup: Optional[np.ndarray] = None
        self._cycles_at_warmup = 0
        self._generated_at_warmup = 0

    # ------------------------------------------------------------------
    def _hot_rank(self) -> Optional[int]:
        if isinstance(self.pattern, HotSpotPattern):
            return self.pattern.hotspot_rank
        return None

    def ejection_channel_id(self, node_rank: int) -> int:
        if not self.config.model_ejection:
            raise ValueError("ejection channels not modelled in this run")
        return self._num_network_channels + node_rank

    # ------------------------------------------------------------------
    # Arrival windows
    # ------------------------------------------------------------------
    def _take_arrivals(self, end: int) -> Tuple[np.ndarray, np.ndarray]:
        """Every source's arrivals before ``end``, merged in
        (time, source) order: ``(times, sources)``.

        One round per arrival a source makes in the window: the sources
        whose next arrival is before ``end`` emit it and draw their
        following gap together.
        """
        nxt = self._next
        t_parts = [np.empty(0)]
        s_parts = [np.empty(0, dtype=np.int64)]
        active = np.flatnonzero(nxt < end)
        while active.size:
            t_parts.append(nxt[active])
            s_parts.append(active)
            nxt[active] += self._arrivals.sample_gaps(active, self.rng)
            active = active[nxt[active] < end]
        t = np.concatenate(t_parts)
        s = np.concatenate(s_parts)
        order = np.lexsort((s, t))
        return t[order], s[order]

    def _open_window(self, start: int) -> None:
        """Generate the arrivals of the window that starts at ``start``."""
        end = min(start + self._window_cycles, self.config.total_cycles)
        times, src = self._take_arrivals(end)
        dst = self.pattern.draw_many(src, self.rng)
        self._win_first_id += len(self._win_cycle)
        self._win_end = end
        self._win_next = 0
        self._win_time = times
        self._win_cycle = times.astype(np.int64)
        self._win_src = src
        self._win_dst = dst
        # Adaptive routes are chosen hop by hop, so they have no pair.
        self._win_pair = (
            np.full(len(src), -1) if self._adaptive else self._pair_ids(src, dst)
        )
        if not self._bulk:
            # The per-cycle engines build each message at its cycle.
            self._win_msgs = list(
                zip(
                    self._win_cycle.tolist(),
                    times.tolist(),
                    src.tolist(),
                    dst.tolist(),
                    self._hot_flags(src, dst).tolist(),
                    self._win_pair.tolist(),
                )
            )

    def _pair_ids(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Pair id of each (source, destination), routing new pairs."""
        n = self.network.num_nodes
        keys, inverse = np.unique(src * n + dst, return_inverse=True)
        idx = np.searchsorted(self._pair_keys, keys)
        known = idx < len(self._pair_keys)
        known[known] = self._pair_keys[idx[known]] == keys[known]
        if not known.all():
            new = keys[~known]
            ids = self._add_pairs(new // n, new % n)
            all_keys = np.concatenate((self._pair_keys, new))
            order = np.argsort(all_keys)
            self._pair_keys = all_keys[order]
            self._pair_key_ids = np.concatenate((self._pair_key_ids, ids))[order]
            idx = np.searchsorted(self._pair_keys, keys)
        return self._pair_key_ids[idx][inverse]

    def _add_pairs(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Route new pairs (with the ejection hop when modelled) and
        register them; returns their pair ids."""
        channels, classes, offsets = self.routes.routes(
            src, dst, ejection=self.config.model_ejection
        )
        first = len(self._pair_hops)
        if self._bulk:
            ids = self.engine.add_routes(channels, classes, offsets)
        else:
            ids = np.arange(first, first + len(src), dtype=np.int64)
            ch, cl, off = channels.tolist(), classes.tolist(), offsets.tolist()
            self._pair_routes.extend(
                (ch[a:b], cl[a:b]) for a, b in zip(off, off[1:])
            )
        self._pair_hops = np.concatenate((self._pair_hops, np.diff(offsets)))
        self._pair_hot = np.concatenate((self._pair_hot, self._hot_flags(src, dst)))
        return ids

    def _hot_flags(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Which (source, destination) pairs carry hot-spot messages:
        those to the hot node from another node."""
        hot_rank = self._hot_rank()
        if hot_rank is None:
            return np.zeros(len(src), dtype=bool)
        return (dst == hot_rank) & (src != hot_rank)

    def _hand_over(self, horizon: int) -> int:
        """Hand the engine the window's arrivals due before ``horizon``;
        returns the cycle of the next arrival not handed over, or the
        window's end."""
        i = self._win_next
        cycles = self._win_cycle
        if self._bulk:
            j = int(np.searchsorted(cycles, horizon))
            if j > i:
                first = self._win_first_id
                self.engine.schedule(
                    cycles[i:j],
                    self._win_src[i:j],
                    self._win_pair[i:j],
                    self.config.message_length,
                    np.arange(first + i, first + j),
                )
        else:
            msgs = self._win_msgs
            j = i
            while j < len(msgs) and msgs[j][0] < horizon:
                self.engine.schedule_message(msgs[j][1], self._make_message(j))
                j += 1
        self._win_next = j
        return int(cycles[j]) if j < len(cycles) else self._win_end

    def _make_message(self, i: int) -> Message:
        """The ``Message`` of window arrival ``i``, for a per-cycle engine."""
        cycle, _, src, dest, is_hot, pair = self._win_msgs[i]
        if self._adaptive:
            msg = Message(
                msg_id=self._win_first_id + i,
                src=src,
                dest=dest,
                length=self.config.message_length,
                generated_at=cycle,
                route_channels=[0],  # placeholder; chosen below
                route_classes=[0],
                is_hot=is_hot,
                dynamic=True,
            )
            ch, cls, _ = self._choose_next_hop(msg, 0)
            msg.route_channels[0] = ch
            msg.route_classes[0] = cls
            return msg
        channels, classes = self._pair_routes[pair]
        return Message(
            msg_id=self._win_first_id + i,
            src=src,
            dest=dest,
            length=self.config.message_length,
            generated_at=cycle,
            route_channels=channels,
            route_classes=classes,
            is_hot=is_hot,
        )

    def stop_arrivals(self) -> None:
        """Generate no more arrivals and drop those not yet admitted."""
        self._next[:] = np.inf
        self._win_next = len(self._win_cycle)
        self.engine.stop_arrivals()

    # ------------------------------------------------------------------
    # Minimal adaptive routing (Duato-style escape; see config.routing)
    # ------------------------------------------------------------------
    def _position_after(self, msg: Message, hop: int) -> int:
        """Rank of the router holding the header before crossing ``hop``."""
        if hop == 0:
            return msg.src
        prev = msg.route_channels[hop - 1]
        if prev >= self._num_network_channels:
            raise RuntimeError("header advanced past an ejection channel")
        rank, dim, direction = self.routes.channel_owner(prev)
        node = self.network.unrank(rank)
        return self.network.rank(self.network.neighbor(node, dim, direction))

    def _choose_next_hop(self, msg: Message, hop: int):
        """Minimal adaptive next-hop choice with escape fallback.

        Picks the productive dimension whose channel has the most free
        *adaptive* VCs right now (an impatient request — re-evaluated
        every cycle it goes ungranted).  When no adaptive VC is free on
        any productive channel, the message falls back on the escape
        sub-network: the lowest productive dimension with the correct
        dateline class — exactly the deterministic e-cube channel, which
        keeps the escape network deadlock-free (Duato).
        """
        net = self.network
        if hop > 0 and msg.route_channels[hop - 1] >= self._num_network_channels:
            return None  # the header just crossed the ejection channel
        cur_rank = self._position_after(msg, hop)
        if cur_rank == msg.dest:
            if self.config.model_ejection and (
                not msg.route_channels
                or msg.route_channels[hop - 1] < self._num_network_channels
            ):
                # One final hop into the PE through the ejection channel.
                return (self._num_network_channels + msg.dest, 0, False)
            return None
        cur = net.unrank(cur_rank)
        dst = net.unrank(msg.dest)
        productive = [d for d in range(net.n) if cur[d] != dst[d]]
        # Adaptive choice: most free adaptive-class VCs (class index 2).
        best_ch = -1
        best_free = 0
        best_dim = -1
        for d in productive:
            ch = self.routes.channel_id(cur_rank, d)
            free = self.engine.pools[ch].free_count(2)
            if free > best_free:
                best_ch, best_free, best_dim = ch, free, d
        if best_ch >= 0:
            if cur[best_dim] == net.k - 1:
                msg.wrapped_dims |= 1 << best_dim
            return (best_ch, 2, True)
        # Escape: deterministic e-cube channel with dateline class.
        d = productive[0]
        ch = self.routes.channel_id(cur_rank, d)
        wrapped = bool((msg.wrapped_dims >> d) & 1)
        at_wrap = cur[d] == net.k - 1
        if at_wrap:
            msg.wrapped_dims |= 1 << d
        return (ch, 1 if (wrapped or at_wrap) else 0, False)

    # ------------------------------------------------------------------
    # Deliveries
    # ------------------------------------------------------------------
    def _record_deliveries(
        self,
        msg_ids: np.ndarray,
        completed: np.ndarray,
        generated: np.ndarray,
        hops: np.ndarray,
        hot: np.ndarray,
    ) -> None:
        """Fold a delivery log into the statistics: per delivered
        message, in delivery order, its id, completion and generation
        cycles (int64), hop count and hot flag.  Every engine's
        deliveries pass here; those before the warmup edge are not
        measured."""
        measured = completed >= self.warmup_end
        if not measured.all():
            completed, generated = completed[measured], generated[measured]
            hops, hot = hops[measured], hot[measured]
        latency = completed - generated + 1
        self.all_stats.fold(latency, hops)
        self.hot_stats.fold(latency[hot], hops[hot])
        self.regular_stats.fold(latency[~hot], hops[~hot])
        self.batches.fold(latency)

    def _on_delivery(self, msg: Message, completion_cycle: int) -> None:
        """A per-cycle engine's delivery, kept for :meth:`_flush_deliveries`."""
        self._delivered.append(
            (msg.msg_id, completion_cycle, msg.generated_at, msg.num_hops, msg.is_hot)
        )

    def _flush_deliveries(self) -> None:
        """Fold the per-cycle engines' deliveries since the last flush."""
        if self._delivered:
            log = np.array(self._delivered, dtype=np.int64).T
            self._delivered = []
            self._record_deliveries(log[0], log[1], log[2], log[3], log[4] != 0)

    def _on_deliveries(self, tags, pairs, generated, completed) -> None:
        """The span engine's delivery log, with hops and hot flags
        looked up by pair."""
        self._record_deliveries(
            tags, completed, generated, self._pair_hops[pairs], self._pair_hot[pairs]
        )

    # ------------------------------------------------------------------
    def _snapshot_warmup(self) -> None:
        counters = self.engine.counters
        self._flits_at_warmup = self.engine.channel_flit_counts.copy()
        self._cycles_at_warmup = counters.cycles_run
        self._generated_at_warmup = counters.generated

    def run(self) -> None:
        """Run warmup + measurement (or until saturation abort).

        One loop for every engine: open the next arrival window when the
        engine reaches its end, hand over the arrivals due before the
        engine's horizon — the window's end for the span engine, the
        next cycle for the per-cycle engines — and let the engine
        :meth:`advance` to the next arrival not handed over (or the
        window's end), clamped at the warmup edge, so the utilisation
        snapshot is taken on that cycle even when the network is idle
        there.  A run with no arrivals is an idle network running to
        the end.  The per-cycle engines' deliveries are folded into the
        statistics when the run ends, or after every advance when a
        completion target needs the count.
        """
        cfg = self.config
        engine = self.engine
        backlog_limit = int(cfg.saturation_backlog_factor * cfg.num_nodes)
        total = cfg.total_cycles
        target = cfg.target_completions
        warmup_end = self.warmup_end
        advance = engine.advance
        counters = engine.counters
        all_stats = self.all_stats
        bulk = self._bulk
        while engine.cycle < total:
            cycle = engine.cycle
            if cycle == warmup_end and self._flits_at_warmup is None:
                self._snapshot_warmup()
            if cycle >= self._win_end:
                self._open_window(cycle)
            stop = self._hand_over(self._win_end if bulk else cycle + 1)
            if cycle < warmup_end < stop:
                stop = warmup_end
            left = None
            if target is not None and cycle >= warmup_end:
                left = target - all_stats.count
            advance(stop, backlog_limit, left)
            if counters.generated - counters.completed > backlog_limit:
                break
            if target is not None:
                self._flush_deliveries()
                if all_stats.count >= target:
                    break
        self._flush_deliveries()
        if self._flits_at_warmup is None:
            self._snapshot_warmup()
        self.measured_generated = counters.generated - self._generated_at_warmup

    # ------------------------------------------------------------------
    def backlog_saturated(self) -> bool:
        cfg = self.config
        return self.engine.counters.backlog > int(
            cfg.saturation_backlog_factor * cfg.num_nodes
        )

    def drain_ratio(self) -> float:
        """Measured completions per measured generation (1 at steady state)."""
        if self.measured_generated == 0:
            return 1.0
        return self.all_stats.count / self.measured_generated

    def offered_loads(self) -> np.ndarray:
        """Mean flits per cycle the workload offers each channel, by
        engine channel id: the arrival model's mean rate times ``Lm``,
        spread over the routes by the pattern's
        :meth:`~repro.traffic.patterns.DestinationPattern.flows`.

        A channel carries at most one flit per cycle, so at a load of 1
        or more its queue has no steady state.  Adaptive routes follow
        the network's state, so under adaptive routing only the
        ejection channels (when modelled) have a fixed load; the
        network channels read 0.
        """
        nodes = self.network.num_nodes
        net = self._num_network_channels
        ejection = self.config.model_ejection
        loads = np.zeros(net + (nodes if ejection else 0))
        u, src, dst, p = self.pattern.flows()
        if not self._adaptive:
            channels, _, offsets = self.routes.routes(src, dst)
            loads[:net] = np.bincount(
                channels, weights=np.repeat(p, np.diff(offsets)), minlength=net
            )
            if u:
                # Dimension-order routes are translation invariant, so
                # uniform traffic puts on every channel what one
                # source's routes to all others put on channels of its
                # dimension and direction (the low digits of the id).
                classes = net // nodes
                channels, _, _ = self.routes.routes(
                    np.zeros(nodes - 1, dtype=np.int64), np.arange(1, nodes)
                )
                share = np.bincount(channels % classes, minlength=classes)
                loads[:net] += np.tile(u * share / (nodes - 1), nodes)
        if ejection:
            loads[net:] = u + np.bincount(dst, weights=p, minlength=nodes)
        return loads * (self.effective_rate * self.config.message_length)

    def measured_channel_utilization(self) -> np.ndarray:
        """Per-channel flit utilisation over the measurement window."""
        assert self._flits_at_warmup is not None
        cycles = self.engine.counters.cycles_run - self._cycles_at_warmup
        if cycles <= 0:
            return np.zeros_like(self.engine.channel_flit_counts, dtype=float)
        delta = self.engine.channel_flit_counts - self._flits_at_warmup
        return delta / cycles

    def hot_sink_channel_utilization(self) -> float:
        """Utilisation of the most loaded channel entering the hot node.

        The last-dimension channel one hop upstream of the hot node
        carries (nearly) the entire hot-spot flow — the analytical
        model's saturation driver (``lam^h_y,1``).
        """
        hot_rank = self._hot_rank()
        if hot_rank is None:
            return 0.0
        net = self.network
        util = self.measured_channel_utilization()
        hot = net.unrank(hot_rank)
        dim = net.n - 1
        upstream = list(hot)
        upstream[dim] = (upstream[dim] - 1) % net.k
        best = util[self.routes.channel_id(net.rank(tuple(upstream)), dim)]
        if net.bidirectional:
            downstream = list(hot)
            downstream[dim] = (downstream[dim] + 1) % net.k
            ch = self.routes.channel_id(net.rank(tuple(downstream)), dim, -1)
            best = max(best, util[ch])
        return float(best)
