"""Tests for bursty arrival processes (repro.traffic.burst)."""

import numpy as np
import pytest

from repro.traffic.burst import (
    ExponentialArrivals,
    OnOffArrivals,
    ParetoOnOffArrivals,
)


def gaps(model, n, seed=0, sources=200):
    """``n`` gaps of ``sources`` sources, drawn the way the workload
    draws them: one ``sample_gaps`` call per round, per-source state in
    the model's arrays.  Shape ``(n // sources, sources)``."""
    rng = np.random.default_rng(seed)
    m = model.fresh(sources)
    every = np.arange(sources)
    return np.stack([m.sample_gaps(every, rng) for _ in range(n // sources)])


def empirical_rate(model, n=40_000, seed=0):
    g = gaps(model, n, seed)
    return g.size / g.sum()


class TestExponential:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ExponentialArrivals(0.0)

    def test_mean_rate_matches(self):
        model = ExponentialArrivals(0.01)
        assert empirical_rate(model) == pytest.approx(0.01, rel=0.05)

    def test_gaps_exponential_cv(self):
        g = gaps(ExponentialArrivals(0.02), 20_000, seed=1)
        cv2 = g.var() / g.mean() ** 2
        assert cv2 == pytest.approx(1.0, abs=0.1)

    def test_fresh_is_independent(self):
        a = ExponentialArrivals(0.5)
        assert a.fresh() is not a
        assert a.fresh().mean_rate == 0.5


class TestOnOff:
    def test_validation(self):
        with pytest.raises(ValueError):
            OnOffArrivals(-1.0)
        with pytest.raises(ValueError):
            OnOffArrivals(0.1, burstiness=0.5)
        with pytest.raises(ValueError):
            OnOffArrivals(0.1, on_mean=0.0)

    def test_mean_rate_preserved(self):
        model = OnOffArrivals(0.01, burstiness=5.0, on_mean=500.0)
        assert empirical_rate(model, n=60_000) == pytest.approx(0.01, rel=0.08)

    def test_burstiness_one_is_poisson(self):
        model = OnOffArrivals(0.02, burstiness=1.0)
        assert model.off_mean == 0.0
        g = gaps(model, 20_000, seed=2)
        cv2 = g.var() / g.mean() ** 2
        assert cv2 == pytest.approx(1.0, abs=0.1)

    def test_gap_variance_exceeds_poisson(self):
        """Burstiness must inflate the inter-arrival CV beyond 1."""
        model = OnOffArrivals(0.01, burstiness=10.0, on_mean=500.0)
        g = gaps(model, 40_000, seed=3)
        cv2 = g.var() / g.mean() ** 2
        assert cv2 > 2.0

    def test_peak_rate(self):
        model = OnOffArrivals(0.01, burstiness=4.0)
        assert model.peak_rate == pytest.approx(0.04)

    @pytest.mark.parametrize("model", [
        OnOffArrivals(0.01, burstiness=5.0, on_mean=100.0),
        ParetoOnOffArrivals(0.01, burstiness=5.0, on_mean=100.0, alpha=1.5),
    ], ids=["exponential", "pareto"])
    def test_state_is_per_source(self, model):
        # A call advances exactly the sources it names: the others keep
        # their state, and the mean rate holds whichever subsets of
        # sources share the calls.
        m = model.fresh(8)
        rng = np.random.default_rng(5)
        m.sample_gaps(np.arange(8), rng)
        before = m._on_left.copy()
        m.sample_gaps(np.array([1, 4, 6]), rng)
        untouched = [0, 2, 3, 5, 7]
        assert np.array_equal(m._on_left[untouched], before[untouched])
        assert model._on_left.tolist() == [0.0]  # the original is untouched
        totals, counts = np.zeros(8), np.zeros(8)
        for _ in range(6_000):
            subset = np.flatnonzero(rng.random(8) < 0.5)
            totals[subset] += m.sample_gaps(subset, rng)
            counts[subset] += 1
        assert counts.sum() / totals.sum() == pytest.approx(0.01, rel=0.1)


class TestParetoOnOff:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            ParetoOnOffArrivals(0.01, alpha=2.5)
        with pytest.raises(ValueError):
            ParetoOnOffArrivals(0.01, alpha=1.0)

    def test_mean_rate_roughly_preserved(self):
        # Heavy tails converge slowly; allow a generous band.
        model = ParetoOnOffArrivals(0.01, burstiness=4.0, on_mean=300.0, alpha=1.7)
        assert empirical_rate(model, n=80_000) == pytest.approx(0.01, rel=0.25)

    def test_pareto_sojourns_heavy_tailed(self):
        rng = np.random.default_rng(4)
        model = ParetoOnOffArrivals(0.01, alpha=1.5)
        samples = np.array([model._pareto(rng, 100.0) for _ in range(50_000)])
        # Minimum equals x_m = mean*(alpha-1)/alpha.
        assert samples.min() >= 100.0 * (0.5 / 1.5) - 1e-9
        # Tail: P(X > 10*mean) is far larger than exponential's e^-10.
        assert (samples > 1000.0).mean() > 0.005


class TestSimulatorIntegration:
    def test_bursty_workload_runs_and_matches_rate(self):
        from repro.simulator import Simulation, SimulationConfig

        cfg = SimulationConfig(
            k=4,
            message_length=8,
            rate=2e-3,
            warmup_cycles=500,
            measure_cycles=30_000,
            seed=9,
        )
        res = Simulation(
            cfg, arrival_model=OnOffArrivals(2e-3, burstiness=6.0, on_mean=300.0)
        ).run()
        assert res.num_completed > 0
        # Mean generation rate preserved: generated ~ rate * N * cycles.
        expected = 2e-3 * cfg.num_nodes * cfg.measure_cycles
        assert res.num_generated == pytest.approx(expected, rel=0.25)

    def test_bursty_latency_at_least_poisson(self):
        """At moderate load, bursty arrivals cannot *reduce* congestion;
        measured latency must be >= ~the Poisson latency."""
        from repro.simulator import Simulation, SimulationConfig

        cfg = SimulationConfig(
            k=8,
            message_length=16,
            rate=2e-3,
            hotspot_fraction=0.3,
            warmup_cycles=2_000,
            measure_cycles=60_000,
            seed=10,
        )
        poisson = Simulation(cfg).run()
        bursty = Simulation(
            cfg,
            arrival_model=OnOffArrivals(2e-3, burstiness=8.0, on_mean=2_000.0),
        ).run()
        # The comparison is only meaningful below saturation: an aborted
        # (backlogged) run truncates its latency sample arbitrarily.
        assert not poisson.saturated
        assert bursty.mean_latency > 0.9 * poisson.mean_latency
