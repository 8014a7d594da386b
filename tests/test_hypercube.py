"""Tests for the hypercube baseline — :class:`repro.core.ndim.NDimHotSpotModel`
at k = 2 — and the k=2 simulator configuration it is validated against."""

import pytest

from repro.core.ndim import NDimHotSpotModel
from repro.simulator import Simulation, SimulationConfig
from repro.topology import KAryNCube


def hypercube(n, message_length, hotspot_fraction):
    return NDimHotSpotModel(
        k=2, n=n, message_length=message_length, hotspot_fraction=hotspot_fraction
    )


class TestModelBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            hypercube(0, message_length=16, hotspot_fraction=0.2)

    def test_node_count(self):
        m = hypercube(6, message_length=16, hotspot_fraction=0.2)
        assert m.num_nodes == 64

    def test_mean_hops(self):
        """Eq (2) at k = 2: ``n/2`` (each address bit flips w.p. 1/2)."""
        assert KAryNCube(2, 8).mean_message_hops == 4.0

    def test_hot_rate_doubles_per_dimension(self):
        """The dimension-i hot-path channel aggregates 2**i sources."""
        m = hypercube(5, message_length=16, hotspot_fraction=0.5)
        for i in range(5):
            assert m.hot_rate(i, 1) == pytest.approx(0.5 * 2**i)

    def test_monotone_and_saturates(self):
        m = hypercube(6, message_length=16, hotspot_fraction=0.3)
        lats = [m.evaluate(r).latency for r in (1e-4, 5e-4, 1e-3)]
        assert all(a < b for a, b in zip(lats, lats[1:]))
        assert m.evaluate(0.1).saturated

    def test_saturation_near_last_dimension_bound(self):
        """The last dimension's hot channel carries lam*h*2^(n-1):
        saturation ~ 1/(h*2^(n-1)*(Lm+1))."""
        n, lm, h = 6, 16, 0.3
        m = hypercube(n, message_length=lm, hotspot_fraction=h)
        bound = 1.0 / (h * 2 ** (n - 1) * (lm + 1))
        sat = m.saturation_rate(hi=0.5)
        assert 0.4 * bound < sat < 1.1 * bound

    def test_more_dimensions_saturate_earlier(self):
        def sat(n):
            m = hypercube(n, message_length=16, hotspot_fraction=0.3)
            return m.saturation_rate(hi=0.5)

        assert sat(4) > sat(6) > sat(8)

    def test_sweep_label(self):
        m = hypercube(4, message_length=8, hotspot_fraction=0.2)
        sw = m.sweep([1e-3], label="hc")
        assert sw.label == "hc"


class TestAgainstSimulator:
    def test_tracks_k2_simulation(self):
        """Model vs flit-level simulation of the 64-node hypercube
        (k=2, n=6) under hot-spot traffic at moderate load."""
        n, lm, h = 6, 16, 0.3
        model = hypercube(n, message_length=lm, hotspot_fraction=h)
        rate = 0.4 * model.saturation_rate(hi=0.5)
        cfg = SimulationConfig(
            k=2,
            n=n,
            message_length=lm,
            rate=rate,
            hotspot_fraction=h,
            warmup_cycles=2_000,
            measure_cycles=40_000,
            seed=77,
        )
        sim = Simulation(cfg).run()
        assert not sim.saturated
        got = model.evaluate(rate).latency
        assert got == pytest.approx(sim.mean_latency, rel=0.35)

    def test_simulator_hypercube_hops(self):
        cfg = SimulationConfig(
            k=2,
            n=6,
            message_length=8,
            rate=1e-3,
            warmup_cycles=500,
            measure_cycles=20_000,
            seed=3,
        )
        res = Simulation(cfg).run()
        # Uniform over N-1: E[hops] = (n/2) * N/(N-1).
        assert res.mean_hops == pytest.approx(3.0 * 64 / 63, rel=0.05)
