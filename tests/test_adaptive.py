"""Tests for minimal adaptive routing with Duato-style escape channels."""

from dataclasses import replace

import pytest

from repro.simulator import Simulation, SimulationConfig
from repro.simulator.buffers import adaptive_partition
from repro.simulator.network import TorusWorkload

BASE = SimulationConfig(
    k=8,
    n=2,
    message_length=16,
    rate=1.5e-3,
    hotspot_fraction=0.3,
    routing="adaptive",
    num_vcs=4,
    warmup_cycles=1_000,
    measure_cycles=25_000,
    seed=31,
)


class TestConfig:
    def test_requires_three_vcs(self):
        with pytest.raises(ValueError):
            replace(BASE, num_vcs=2)

    def test_rejects_bidirectional(self):
        with pytest.raises(ValueError):
            replace(BASE, bidirectional=True)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            replace(BASE, routing="quantum")


class TestPartition:
    def test_escape_plus_adaptive(self):
        e0, e1, ad = adaptive_partition(4)
        assert list(e0) == [0] and list(e1) == [1] and list(ad) == [2, 3]

    def test_needs_three(self):
        with pytest.raises(ValueError):
            adaptive_partition(2)


class TestBehaviour:
    def test_messages_delivered_minimally(self):
        """Adaptive routes are minimal: measured mean hops must equal the
        uniform-traffic expectation exactly like dimension-order."""
        w = TorusWorkload(replace(BASE, hotspot_fraction=0.0))
        w.run()
        n_nodes = BASE.num_nodes
        expected = 2 * (BASE.k - 1) / 2 * n_nodes / (n_nodes - 1)
        assert w.all_stats.mean_hops == pytest.approx(expected, rel=0.05)

    def test_conservation_and_no_vc_leak(self):
        w = TorusWorkload(BASE)
        w.run()
        c = w.engine.counters
        assert c.generated == c.completed + c.backlog
        w.stop_arrivals()
        guard = 0
        while w.engine.backlog_ids():
            w.engine.step()
            guard += 1
            assert guard < 100_000, "adaptive network failed to drain"
        assert all(p.busy_count == 0 for p in w.engine.pools)

    def test_deterministic_reproducible(self):
        a = Simulation(BASE).run()
        b = Simulation(BASE).run()
        assert a.mean_latency == b.mean_latency

    def test_no_deadlock_under_heavy_hotspot(self):
        """Past saturation the watchdog would fire on any deadlock; the
        run must instead end via the backlog/drain saturation path."""
        cfg = replace(
            BASE,
            rate=6e-3,
            hotspot_fraction=0.5,
            measure_cycles=30_000,
        )
        res = Simulation(cfg).run()
        assert res.saturated  # overloaded, but alive

    def test_matches_deterministic_at_light_load(self):
        """With idle VCs everywhere, adaptive and deterministic latencies
        coincide (minimal paths, no contention to avoid)."""
        light = replace(BASE, rate=2e-4, hotspot_fraction=0.0,
                        measure_cycles=40_000)
        a = Simulation(light).run()
        d = Simulation(replace(light, routing="deterministic")).run()
        assert a.mean_latency == pytest.approx(d.mean_latency, rel=0.05)

    def test_raises_hotspot_saturation_vs_deterministic(self):
        """Adaptive spreads hot traffic over both of the hot node's
        incoming channels, roughly doubling the sink bandwidth the
        deterministic y-funnel provides."""
        rate = 3e-3  # past the deterministic knee, below the adaptive one
        adaptive = Simulation(replace(BASE, rate=rate, hotspot_fraction=0.4,
                                      measure_cycles=40_000)).run()
        deterministic = Simulation(
            replace(BASE, rate=rate, hotspot_fraction=0.4,
                    routing="deterministic", measure_cycles=40_000)
        ).run()
        assert not adaptive.saturated
        assert deterministic.saturated

    def test_works_with_ejection_modelling(self):
        cfg = replace(BASE, model_ejection=True, measure_cycles=15_000)
        res = Simulation(cfg).run()
        assert res.num_completed > 0
        assert not res.saturated

    def test_hot_messages_classified(self):
        w = TorusWorkload(BASE)
        w.run()
        assert w.hot_stats.count > 0
        assert w.hot_stats.mean >= w.regular_stats.mean * 0.8
