"""End-to-end tests of the flit-level simulation (TorusWorkload/Simulation)."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.simulator import Simulation, SimulationConfig, kernel
from repro.simulator.network import TorusWorkload
from repro.topology import DimensionOrderRouter
from repro.traffic.patterns import MatrixPattern, TransposePattern
from repro.traffic.rates import HotSpotRates, empirical_channel_rates


BASE = SimulationConfig(
    k=4,
    n=2,
    message_length=8,
    rate=2e-3,
    hotspot_fraction=0.0,
    warmup_cycles=1_000,
    measure_cycles=15_000,
    seed=11,
)


def assert_conserved(engine):
    c = engine.counters
    assert c.generated == c.completed + c.backlog
    # Admission puts a message in the backlog *and* in its source
    # queue, so queued messages are a subset of the backlog, not extra.
    backlog = engine.backlog_ids()
    assert c.backlog == len(backlog)
    assert set(engine.queued_ids()) <= set(backlog)


class TestConservation:
    def test_messages_conserved(self):
        w = TorusWorkload(BASE)
        w.run()
        assert_conserved(w.engine)

    def test_messages_conserved_when_saturated(self):
        w = TorusWorkload(replace(BASE, rate=0.2))
        w.run()
        assert w.backlog_saturated()
        assert w.engine.queued_ids()
        assert_conserved(w.engine)

    def test_flit_moves_equal_length_times_hops(self):
        """Every completed message moved exactly length*hops flits, so
        total moves >= completed contribution (in-flight residue aside)."""
        w = TorusWorkload(BASE)
        w.run()
        # Drain what's left by running with arrivals exhausted.
        # (Simply bound-check: moves per completion between min and max
        # possible.)
        lm = BASE.message_length
        min_hops, max_hops = 1, 2 * (BASE.k - 1)
        c = w.engine.counters
        assert c.flit_moves >= c.completed * lm * min_hops
        assert c.flit_moves <= c.generated * lm * max_hops

    def test_no_vc_leak_after_drain(self):
        cfg = replace(BASE, rate=5e-4, measure_cycles=5_000)
        w = TorusWorkload(cfg)
        w.run()
        # Run on without new arrivals until in-flight messages drain.
        w.stop_arrivals()
        guard = 0
        while w.engine.backlog_ids():
            w.engine.step()
            guard += 1
            assert guard < 50_000
        assert not w.engine.held_vcs()


class TestStatisticsSanity:
    def test_mean_hops_matches_uniform_expectation(self):
        res = Simulation(BASE).run()
        # Uniform over N-1 destinations: E[hops] = n*(k-1)/2 * N/(N-1).
        n_nodes = BASE.num_nodes
        expected = 2 * (BASE.k - 1) / 2 * n_nodes / (n_nodes - 1)
        assert res.mean_hops == pytest.approx(expected, rel=0.05)

    def test_zero_load_latency(self):
        cfg = replace(BASE, rate=5e-5, measure_cycles=200_000, warmup_cycles=0)
        res = Simulation(cfg).run()
        # Nearly contention-free: latency ~ Lm + hops - 1.
        expected = BASE.message_length + res.mean_hops - 1
        assert res.mean_latency == pytest.approx(expected, rel=0.08)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_zero_load_mean_is_exact(self, seed):
        # Nearly no contention at 1e-4: the batch-means mean must sit on
        # the exact zero-load mean Lm - 1 + (1/N) sum_s sum_d p(s,d)
        # hops(s,d) = 10.2 cycles, within 3 half-widths of its 95% CI
        # (seeds 1-6 land between -0.4 and +1.8 half-widths).
        cfg = SimulationConfig(
            k=4, message_length=8, rate=1e-4, hotspot_fraction=0.2,
            warmup_cycles=1_000, measure_cycles=400_000, seed=seed,
        )
        sim = Simulation(cfg)
        w = sim.workload
        router = DimensionOrderRouter(w.network)
        n = w.network.num_nodes
        mean_hops = sum(
            p * router.route(w.network.unrank(s), w.network.unrank(d)).num_hops
            for s in range(n)
            for d, p in enumerate(w.pattern.destination_probabilities(s))
            if p
        ) / n
        exact = cfg.message_length - 1 + mean_hops
        assert exact == pytest.approx(10.2)
        sim.run()
        mean, ci = w.batches.mean(), w.batches.confidence_interval(0.95)
        assert abs(mean - exact) <= 3 * ci

    def test_channel_utilization_matches_rate_equation(self):
        """Measured per-channel flit utilisation must equal
        lam * k-bar * Lm * N/(N-1) under uniform traffic."""
        cfg = replace(BASE, rate=4e-3, measure_cycles=40_000)
        w = TorusWorkload(cfg)
        w.run()
        util = w.measured_channel_utilization()
        n_nodes = cfg.num_nodes
        expected = (
            cfg.rate * (cfg.k - 1) / 2 * cfg.message_length * n_nodes / (n_nodes - 1)
        )
        assert util.mean() == pytest.approx(expected, rel=0.1)

    def test_determinism(self):
        a = Simulation(BASE).run()
        b = Simulation(BASE).run()
        assert a.mean_latency == b.mean_latency
        assert a.num_completed == b.num_completed

    def test_seed_changes_stream(self):
        a = Simulation(BASE).run()
        b = Simulation(replace(BASE, seed=12)).run()
        assert a.mean_latency != b.mean_latency

    def test_warmup_snapshot_when_idle_at_the_edge(self):
        # The network empties on exactly the cycle that reaches the
        # warmup edge: the idle jump must stop there so the utilisation
        # window starts at warmup, not at the end of the run.
        cfg = SimulationConfig(
            k=4, message_length=4, rate=2e-3, hotspot_fraction=0.2,
            warmup_cycles=1_000, measure_cycles=2_000, seed=15,
        )
        sim = Simulation(cfg)
        w = sim.workload
        completions = []
        record = w._record_deliveries

        def hook(msg_ids, completed, generated, hops, hot):
            completions.extend(completed.tolist())
            record(msg_ids, completed, generated, hops, hot)

        w._record_deliveries = hook
        res = sim.run()
        edge = cfg.warmup_cycles
        # The scenario: every message generated before the edge has
        # completed by then, the last on the cycle before it, and the
        # next arrival comes later (one window holds the whole run).
        before = [c for c in completions if c < edge]
        assert len(before) == w._generated_at_warmup
        assert max(before) == edge - 1
        assert w._window_cycles >= cfg.total_cycles
        assert not np.any(w._win_cycle == edge)
        assert w._cycles_at_warmup == edge
        assert res.num_completed == 58
        assert res.max_channel_utilization == pytest.approx(0.020, abs=5e-4)

    def test_zero_rate(self, monkeypatch):
        # No arrivals is an idle network running to the end: the whole
        # window counts, and the utilisation snapshot is taken at the
        # warmup edge, on the compiled and on the reference path.
        cfg = replace(BASE, rate=0.0)
        for hide_kernel in (False, True):
            if hide_kernel:
                monkeypatch.setattr(kernel, "_loaded", None)
                monkeypatch.setattr(kernel, "_load_attempted", True)
            sim = Simulation(cfg)
            res = sim.run()
            assert res.num_completed == 0
            assert math.isnan(res.mean_latency)
            assert not res.saturated
            assert res.cycles_run == cfg.total_cycles
            assert sim.workload._cycles_at_warmup == cfg.warmup_cycles


class TestHotSpotWorkload:
    def test_hot_message_share(self):
        cfg = replace(BASE, hotspot_fraction=0.5, rate=1e-3)
        w = TorusWorkload(cfg)
        w.run()
        total = w.all_stats.count
        hot = w.hot_stats.count
        # Destination-based classification: h + (1-h)/(N-1).
        expected = 0.5 + 0.5 / (cfg.num_nodes - 1)
        assert hot / total == pytest.approx(expected, abs=0.05)

    def test_hot_messages_slower(self):
        cfg = replace(
            BASE, hotspot_fraction=0.4, rate=2.5e-3, measure_cycles=40_000
        )
        w = TorusWorkload(cfg)
        w.run()
        assert w.hot_stats.mean > w.regular_stats.mean

    def test_hot_sink_is_hottest_channel(self):
        cfg = replace(
            BASE, hotspot_fraction=0.6, rate=2e-3, measure_cycles=40_000
        )
        sim = Simulation(cfg)
        res = sim.run()
        assert res.hot_sink_utilization == pytest.approx(
            res.max_channel_utilization, rel=0.15
        )

    def test_custom_hot_node(self):
        cfg = replace(BASE, hotspot_fraction=0.5, hotspot_node=(2, 3))
        w = TorusWorkload(cfg)
        assert w.pattern.hotspot_rank == w.network.rank((2, 3))
        w.run()
        assert w.hot_stats.count > 0


class TestSaturationDetection:
    def test_overload_flags_saturated(self):
        # Way past the bandwidth bound: k=4, Lm=8 uniform saturates
        # around lam ~ 1/((k-1)/2*Lm) ~ 0.083.
        cfg = replace(BASE, rate=0.2, measure_cycles=30_000, warmup_cycles=500)
        res = Simulation(cfg).run()
        assert res.saturated

    def test_moderate_load_not_saturated(self):
        res = Simulation(BASE).run()
        assert not res.saturated

    def test_hotspot_saturates_earlier_than_uniform(self):
        rate = 0.02  # below uniform saturation, above hot-spot one
        uni = Simulation(replace(BASE, rate=rate, measure_cycles=30_000)).run()
        hot = Simulation(
            replace(
                BASE, rate=rate, hotspot_fraction=0.5, measure_cycles=30_000
            )
        ).run()
        assert not uni.saturated
        assert hot.saturated

    def test_offered_load_past_capacity_flags_saturated(self):
        # Two percent past the busiest channel's capacity, a 10 000-cycle
        # window at seed 11 neither builds a deep backlog nor falls
        # below the drain ratio, yet the queue has no steady state: the
        # offered load alone marks the point saturated.
        base = SimulationConfig(k=8, message_length=16, rate=1.0,
                                hotspot_fraction=0.3, warmup_cycles=1_000,
                                measure_cycles=10_000, seed=11)
        unit = TorusWorkload(base).offered_loads().max()
        sim = Simulation(replace(base, rate=1.02 / unit))
        res = sim.run()
        assert not sim.workload.backlog_saturated()
        assert sim.workload.drain_ratio() >= base.min_drain_ratio
        assert res.saturated
        assert math.isfinite(res.mean_latency)


def random_matrix_pattern(network, seed):
    m = np.random.default_rng(seed).random((network.num_nodes,) * 2)
    np.fill_diagonal(m, 0.0)
    return MatrixPattern(network, m / m.sum(axis=1, keepdims=True))


class TestOfferedLoads:
    @pytest.mark.parametrize("k,n,bidirectional", [
        (4, 2, False), (5, 2, True), (3, 3, False), (6, 1, True),
    ])
    @pytest.mark.parametrize("kind", ["uniform", "hotspot", "matrix"])
    def test_match_enumerated_routes(self, k, n, bidirectional, kind):
        # Every channel's load equals the rate-weighted count of routes
        # crossing it, enumerated pair by pair with the topology's own
        # router; an ejection channel carries all traffic to its node.
        cfg = SimulationConfig(
            k=k, n=n, bidirectional=bidirectional, message_length=8,
            rate=1e-3, hotspot_fraction=0.3 if kind == "hotspot" else 0.0,
            hotspot_node=(1,) * n, model_ejection=True,
        )
        network = TorusWorkload(cfg).network
        pattern = random_matrix_pattern(network, k * n) if kind == "matrix" else None
        w = TorusWorkload(cfg, pattern=pattern)
        expected = np.zeros(w.routes.num_channels + network.num_nodes)
        rates = empirical_channel_rates(network, cfg.rate, w.pattern)
        for ch, r in rates.items():
            expected[w.routes.channel_id(network.rank(ch.src), ch.dim, ch.direction)] = r
        for s in range(network.num_nodes):
            expected[w.routes.num_channels:] += (
                cfg.rate * w.pattern.destination_probabilities(s)
            )
        np.testing.assert_allclose(
            w.offered_loads(), expected * cfg.message_length, rtol=1e-12, atol=1e-15
        )

    def test_busiest_channel_is_the_papers_hot_channel(self):
        # Figure 2, h = 40%: the busiest channel is the last y channel
        # into the hot node, at the load of the paper's rate equations.
        # They omit the hot node's own messages, which are all regular,
        # so the exact load is slightly higher.
        cfg = SimulationConfig(k=16, message_length=100, rate=1.1e-4,
                               hotspot_fraction=0.4)
        w = TorusWorkload(cfg)
        loads = w.offered_loads()
        hot_channel = w.routes.channel_id(w.network.rank((0, 15)), 1)
        assert int(np.argmax(loads)) == hot_channel
        paper = HotSpotRates(16, cfg.rate, 0.4).total_rate_y(1) * 100
        assert paper < loads[hot_channel] < paper * 1.001
        assert loads[hot_channel] > 1.0

    def test_adaptive_routing_fixes_only_ejection_loads(self):
        cfg = replace(BASE, routing="adaptive", num_vcs=3, hotspot_fraction=0.3,
                      model_ejection=True)
        w = TorusWorkload(cfg)
        loads = w.offered_loads()
        net = w.routes.num_channels
        assert not loads[:net].any()
        hot = w.pattern.hotspot_rank
        into_hot = sum(
            w.pattern.destination_probabilities(s)[hot]
            for s in range(w.network.num_nodes)
        )
        assert loads[net + hot] == pytest.approx(
            cfg.rate * cfg.message_length * into_hot, rel=1e-12
        )


class TestCustomPattern:
    def test_transpose_pattern_runs(self):
        w = TorusWorkload(BASE, pattern=TransposePattern(TorusWorkload(BASE).network))
        w.run()
        assert w.all_stats.count > 0
        # No hot classification under a non-hot-spot pattern.
        assert w.hot_stats.count == 0
