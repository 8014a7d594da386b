"""Arrival windows against a one-arrival-at-a-time form of the stream.

A point draws everything from one generator, ``default_rng(seed)``: the
first gap of every source when the workload is built; then per window,
rounds in which every source whose next arrival falls before the
window's end emits it and all of them draw their following gap in one
``sample_gaps`` call; then the window's arrivals, merged by (time,
source), draw their destinations in one ``draw_many`` call.  The oracle
below keeps per-source next times in Python floats, pushes each emitted
arrival onto a ``(time, source)`` heap and pops the window's arrivals
one by one, drawing each destination with ``pattern.draw``.  The two
must agree bit for bit — times, sources, destinations, every source's
next arrival and the state the generator is left in.
"""

import heapq
from dataclasses import replace

import numpy as np
import pytest

from repro.simulator import Simulation, SimulationConfig
from repro.simulator.network import TorusWorkload
from repro.traffic.burst import (
    ExponentialArrivals,
    OnOffArrivals,
    ParetoOnOffArrivals,
)
from repro.topology.kary_ncube import KAryNCube
from repro.traffic.patterns import HotSpotPattern


class StreamOracle:
    """The point's random stream, one arrival at a time."""

    def __init__(self, cfg, model):
        net = KAryNCube(k=cfg.k, n=cfg.n)
        self.pattern = HotSpotPattern(net, cfg.hotspot_fraction)
        self.rng = np.random.default_rng(cfg.seed)
        self.model = model.fresh(net.num_nodes)
        sources = np.arange(net.num_nodes)
        self.next = self.model.sample_gaps(sources, self.rng).tolist()

    def window(self, end):
        """The arrivals ``(time, source, destination)`` before ``end``."""
        heap = []
        while True:
            due = [src for src, t in enumerate(self.next) if t < end]
            if not due:
                break
            gaps = self.model.sample_gaps(np.array(due), self.rng)
            for src, gap in zip(due, gaps.tolist()):
                heapq.heappush(heap, (self.next[src], src))
                self.next[src] += gap
        out = []
        while heap:
            t, src = heapq.heappop(heap)
            out.append((t, src, self.pattern.draw(src, self.rng)))
        return out

    def windows(self, cfg, window_cycles):
        """Every window of a run, in order."""
        start = 0
        while start < cfg.total_cycles:
            end = min(start + window_cycles, cfg.total_cycles)
            yield self.window(end)
            start = end


def window_arrivals(w):
    return list(zip(w._win_time.tolist(), w._win_src.tolist(),
                    w._win_dst.tolist()))


# k=2, n=2 (4 sources) at rate 0.05 over 30 000 cycles: a window spans
# 160 cycles, about 8 arrivals (rounds) per source.
CFG = SimulationConfig(
    k=2, n=2, message_length=2, rate=0.05, hotspot_fraction=0.3,
    warmup_cycles=0, measure_cycles=30_000, seed=17,
)

MODELS = [
    ExponentialArrivals(CFG.rate),
    OnOffArrivals(CFG.rate, burstiness=4.0, on_mean=50.0),
    ParetoOnOffArrivals(CFG.rate, burstiness=4.0, on_mean=50.0, alpha=1.4),
]


class TestWindowsMatchHeapMerge:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_whole_run(self, model):
        w = TorusWorkload(CFG, arrival_model=model)
        oracle = StreamOracle(CFG, model)
        assert w._next.tolist() == oracle.next
        sizes, rounds = [], []
        for expected in oracle.windows(CFG, w._window_cycles):
            start = w._win_end
            w._open_window(start)
            assert w._win_end == min(start + w._window_cycles, CFG.total_cycles)
            assert window_arrivals(w) == expected
            assert np.array_equal(w._win_cycle, np.floor(w._win_time))
            sizes.append(len(w._win_cycle))
            rounds.append(np.bincount(w._win_src).max(initial=0))
        assert w._win_end == CFG.total_cycles
        assert len(sizes) > 100
        assert max(rounds) >= 5  # windows of many rounds
        # The generator drew exactly the oracle's gaps and destinations.
        assert w._next.tolist() == oracle.next
        assert w.rng.bit_generator.state == oracle.rng.bit_generator.state

    def test_message_ids_count_on_across_windows(self):
        w = TorusWorkload(CFG)
        w._open_window(0)
        first = len(w._win_cycle)
        w._open_window(w._win_end)
        assert w._win_first_id == first
        assert np.all(np.diff(w._win_time) >= 0)

    def test_run_that_stops_mid_window(self):
        # Overloaded: the backlog exit ends the run inside a window.  The
        # windows drawn are the oracle's first windows, the engine
        # admitted a prefix of their arrivals, and every delivered
        # message is the oracle's arrival of the same index.
        cfg = replace(CFG, rate=0.4, measure_cycles=200_000,
                      saturation_backlog_factor=40.0)
        w = TorusWorkload(cfg)
        drawn = []
        open_window = w._open_window

        def spy(start):
            open_window(start)
            drawn.extend(window_arrivals(w))

        w._open_window = spy
        delivered = []
        record = w._record_deliveries

        def hook(msg_ids, completed, generated, hops, hot):
            delivered.extend(zip(msg_ids.tolist(), generated.tolist(),
                                 hot.tolist()))
            record(msg_ids, completed, generated, hops, hot)

        w._record_deliveries = hook
        w.run()
        generated = w.engine.counters.generated
        assert w.backlog_saturated()
        assert w.engine.cycle < cfg.total_cycles
        assert generated < len(drawn)
        expected = []
        for window in StreamOracle(cfg, ExponentialArrivals(cfg.rate)).windows(
            cfg, w._window_cycles
        ):
            if len(expected) == len(drawn):
                break
            expected.extend(window)
        assert drawn == expected
        hot_rank = w.pattern.hotspot_rank
        assert delivered
        for msg_id, gen, hot in delivered:
            assert msg_id < generated
            t, src, dst = drawn[msg_id]
            assert gen == int(t)
            assert hot == (dst == hot_rank and src != hot_rank)


class TestPoissonCounts:
    def test_per_source_counts_are_poisson(self):
        # 256 sources at rate 2e-3: cut 200 000 cycles into 50 spans of
        # T = 4000 cycles, lambda T = 8 arrivals.  Counts in disjoint
        # spans are independent, so over the n = 12 800 (source, span)
        # counts the sample mean has standard error sqrt(8 / n) = 0.025
        # and the sample variance sqrt((8 + 2 * 8**2) / n) = 0.10; both
        # must lie within 4 standard errors of lambda T.
        cfg = SimulationConfig(
            k=16, message_length=4, rate=2e-3, warmup_cycles=0,
            measure_cycles=200_000, seed=3,
        )
        w = TorusWorkload(cfg)
        span, windows = 4_000, 50
        counts = []
        for i in range(windows):
            times, sources = w._take_arrivals((i + 1) * span)
            assert np.all(times >= i * span)
            counts.append(np.bincount(sources, minlength=cfg.num_nodes))
        counts = np.concatenate(counts)
        lam_t, n = cfg.rate * span, counts.size
        assert abs(counts.mean() - lam_t) < 4 * np.sqrt(lam_t / n)
        assert abs(counts.var(ddof=1) - lam_t) < 4 * np.sqrt(
            (lam_t + 2 * lam_t**2) / n
        )


class TestOverloadedPointStaysCheap:
    def test_draws_stop_near_the_backlog_exit(self):
        # `repro simulate --k 4 --lm 4 --h 0.2 --rate 0.5 --cycles 200000
        # --seed 8` saturates on the backlog exit after 16 cycles, the
        # last cycle of its first 16-cycle window; drawing every
        # destination to the end of the run would take about 1.8 million
        # draws.
        cfg = SimulationConfig(
            k=4, message_length=4, rate=0.5, hotspot_fraction=0.2,
            warmup_cycles=25_000, measure_cycles=200_000, seed=8,
        )
        sim = Simulation(cfg)
        w = sim.workload
        draws = []
        draw_many = w.pattern.draw_many
        w.pattern.draw_many = (
            lambda sources, rng: draws.extend(sources) or draw_many(sources, rng)
        )
        res = sim.run()
        assert res.saturated
        assert res.cycles_run == w._window_cycles == 16
        assert w._win_first_id == 0
        generated = w.engine.counters.generated
        backlog_limit = int(cfg.saturation_backlog_factor * cfg.num_nodes)
        assert len(draws) <= generated + len(w._win_cycle)
        assert len(draws) <= generated + 2 * backlog_limit
