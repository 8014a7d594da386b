"""Arrival windows against the per-message heap merge they replaced.

The workload generates arrivals a window at a time: per source, gaps in
blocks of 256 from the source's spawned child RNG, arrival times as the
running sum continued across blocks, sources merged by (time, source)
and destinations drawn in that order.  The oracle below is the
one-arrival-at-a-time form: a block-buffered gap stream per source and
a ``(time, source)`` heap, popping the earliest arrival, drawing its
destination and pushing the source's next arrival.  The two must agree
bit for bit — times, sources, destinations, and the state every RNG is
left in.
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


class GapStream:
    """Inter-arrival gaps of one source, drawn 256 at a time."""

    BLOCK = 256

    def __init__(self, model, rng):
        self.model = model
        self.rng = rng
        self.buf = []
        self.pos = 0

    def next_gap(self):
        if self.pos >= len(self.buf):
            self.buf = self.model.sample_gaps(self.rng, self.BLOCK).tolist()
            self.pos = 0
        gap = self.buf[self.pos]
        self.pos += 1
        return gap


class HeapSchedule:
    """The oracle: arrivals popped one by one from a (time, source) heap."""

    def __init__(self, cfg, model):
        net = KAryNCube(k=cfg.k, n=cfg.n)
        self.pattern = HotSpotPattern(net, cfg.hotspot_fraction)
        self.rng = np.random.default_rng(cfg.seed)
        self.gap_rngs = self.rng.spawn(net.num_nodes)
        self.streams = [GapStream(model.fresh(), r) for r in self.gap_rngs]
        self.heap = [(s.next_gap(), src) for src, s in enumerate(self.streams)]
        heapq.heapify(self.heap)

    def pop(self):
        """The next arrival ``(time, source, destination)``."""
        t, src = heapq.heappop(self.heap)
        dst = self.pattern.draw(src, self.rng)
        heapq.heappush(self.heap, (t + self.streams[src].next_gap(), src))
        return t, src, dst

    def until(self, end):
        """Every arrival before ``end``."""
        out = []
        while self.heap[0][0] < end:
            out.append(self.pop())
        return out

    def first(self, count):
        return [self.pop() for _ in range(count)]


def window_arrivals(w):
    return list(zip(w._win_time.tolist(), w._win_src.tolist(),
                    w._win_dst.tolist()))


# k=2, n=2 (4 sources) at rate 0.05 over 30 000 cycles: each source
# draws about six 256-gap blocks; a window spans 160 cycles.
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
        oracle = HeapSchedule(CFG, model)
        sizes = []
        while w._win_end < CFG.total_cycles:
            start = w._win_end
            w._open_window(start)
            assert w._win_end == min(start + w._window_cycles, CFG.total_cycles)
            assert window_arrivals(w) == oracle.until(w._win_end)
            assert np.array_equal(w._win_cycle, np.floor(w._win_time))
            sizes.append(len(w._win_cycle))
        assert len(sizes) > 100
        assert sum(sizes) > 3 * 256 * CFG.num_nodes  # several gap blocks
        # Every stream drew exactly the oracle's gap blocks, and the
        # workload RNG exactly the oracle's destinations.
        for mine, theirs in zip(w._gap_rngs, oracle.gap_rngs):
            assert mine.bit_generator.state == theirs.bit_generator.state
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
        # windows drawn are a prefix of the oracle's arrivals, the engine
        # admitted a prefix of those, and every delivered message is the
        # oracle's arrival of the same index.
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
        record = w._record_delivery

        def hook(msg_id, cycle, generated, hops, hot):
            delivered.append((msg_id, generated, hot))
            record(msg_id, cycle, generated, hops, hot)

        w._record_delivery = hook
        w.run()
        generated = w.engine.counters.generated
        assert w.backlog_saturated()
        assert w.engine.cycle < cfg.total_cycles
        assert generated < len(drawn)
        oracle = HeapSchedule(cfg, ExponentialArrivals(cfg.rate))
        assert drawn == oracle.first(len(drawn))
        hot_rank = w.pattern.hotspot_rank
        assert delivered
        for msg_id, gen, hot in delivered:
            assert msg_id < generated
            t, src, dst = drawn[msg_id]
            assert gen == int(t)
            assert hot == (dst == hot_rank and src != hot_rank)


class TestOverloadedPointStaysCheap:
    def test_draws_stop_near_the_backlog_exit(self):
        # `repro simulate --k 4 --lm 4 --h 0.2 --rate 0.5 --cycles 200000
        # --seed 5` saturates after 16 cycles; drawing every destination
        # to the end of the run would take about 1.6 million draws.
        cfg = SimulationConfig(
            k=4, message_length=4, rate=0.5, hotspot_fraction=0.2,
            warmup_cycles=25_000, measure_cycles=200_000, seed=5,
        )
        sim = Simulation(cfg)
        w = sim.workload
        draws = []
        draw = w.pattern.draw
        w.pattern.draw = lambda src, rng: draws.append(src) or draw(src, rng)
        res = sim.run()
        assert res.saturated
        assert res.cycles_run == 16
        generated = w.engine.counters.generated
        backlog_limit = int(cfg.saturation_backlog_factor * cfg.num_nodes)
        assert len(draws) <= generated + len(w._win_cycle)
        assert len(draws) <= generated + 2 * backlog_limit
