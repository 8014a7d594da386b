"""Tests for the n-dimensional extension model (repro.core.ndim)."""

import math

import pytest

from repro.core.model import HotSpotLatencyModel
from repro.core.ndim import NDimHotSpotModel
from repro.traffic.rates import HotSpotRates


class TestHotRates:
    def test_reduces_to_2d_formulas(self):
        """lam^h_{i,j} = lam*h*k^i*(k-j) must equal eqs (6)-(7) at n=2."""
        k, h, lam = 8, 0.3, 0.01
        m = NDimHotSpotModel(k=k, n=2, message_length=16, hotspot_fraction=h)
        ref = HotSpotRates(k=k, rate=lam, hotspot_fraction=h)
        for j in range(1, k + 1):
            assert lam * m.hot_rate(0, j) == pytest.approx(ref.hot_rate_x(j))
            assert lam * m.hot_rate(1, j) == pytest.approx(ref.hot_rate_y(j))

    def test_last_dimension_carries_all_hot_traffic(self):
        m = NDimHotSpotModel(k=4, n=3, message_length=8, hotspot_fraction=0.5)
        # Channel 1 hop upstream in the last dimension sees k^(n-1)*(k-1)
        # source-equivalents = nearly all N-1 nodes.
        assert m.hot_rate(2, 1) == pytest.approx(0.5 * 16 * 3)

    def test_hot_ring_fraction(self):
        m = NDimHotSpotModel(k=4, n=3, message_length=8, hotspot_fraction=0.5)
        assert m.hot_ring_fraction(0) == pytest.approx(1.0)
        assert m.hot_ring_fraction(1) == pytest.approx(1 / 4)
        assert m.hot_ring_fraction(2) == pytest.approx(1 / 16)

    def test_rate_bounds_validated(self):
        m = NDimHotSpotModel(k=4, n=2, message_length=8, hotspot_fraction=0.5)
        with pytest.raises(ValueError):
            m.hot_rate(2, 1)
        with pytest.raises(ValueError):
            m.hot_rate(0, 0)


class TestBehaviour:
    def test_validation(self):
        # k=2 is the hypercube special case and is allowed.
        with pytest.raises(ValueError):
            NDimHotSpotModel(k=1, n=2, message_length=8, hotspot_fraction=0.1)
        with pytest.raises(ValueError):
            NDimHotSpotModel(k=8, n=2, message_length=8, hotspot_fraction=1.0)

    def test_monotone_in_rate(self):
        m = NDimHotSpotModel(k=8, n=2, message_length=16, hotspot_fraction=0.3)
        lats = [m.evaluate(r).latency for r in (0.0002, 0.0005, 0.001)]
        assert all(a < b for a, b in zip(lats, lats[1:]))

    def test_saturates(self):
        m = NDimHotSpotModel(k=8, n=2, message_length=16, hotspot_fraction=0.3)
        assert m.evaluate(0.05).saturated

    def test_saturation_decreases_with_h(self):
        def sat(h):
            m = NDimHotSpotModel(k=8, n=2, message_length=16, hotspot_fraction=h)
            return m.saturation_rate(hi=0.05)

        assert sat(0.2) > sat(0.5) > sat(0.8)

    def test_tracks_2d_model(self):
        """The n-dim compression must stay within ~25% of the exact 2-D
        model at light/moderate load."""
        k, lm, h = 8, 16, 0.3
        exact = HotSpotLatencyModel(k=k, message_length=lm, hotspot_fraction=h)
        ndim = NDimHotSpotModel(k=k, n=2, message_length=lm, hotspot_fraction=h)
        for rate in (0.0002, 0.0005, 0.001):
            a = exact.evaluate(rate).latency
            b = ndim.evaluate(rate).latency
            assert b == pytest.approx(a, rel=0.25), rate

    def test_three_dimensions_run(self):
        m = NDimHotSpotModel(k=4, n=3, message_length=8, hotspot_fraction=0.2)
        res = m.evaluate(0.001)
        assert res.finite
        assert res.latency > 8

    def test_zero_load(self):
        # Rate 0 is solved like any other rate, so the latency is
        # continuous there: it meets the limit from above.
        for k, n in ((64, 1), (8, 2), (4, 3), (6, 3)):
            m = NDimHotSpotModel(k=k, n=n, message_length=32, hotspot_fraction=0.4)
            zero, tiny = m.evaluate(0.0), m.evaluate(1e-12)
            assert zero.finite and not zero.saturated
            assert zero.latency == pytest.approx(tiny.latency, rel=1e-6), (k, n)

    def test_sweep(self):
        m = NDimHotSpotModel(k=8, n=2, message_length=16, hotspot_fraction=0.3)
        sw = m.sweep([0.0005, 0.05], label="nd")
        assert sw.label == "nd"
        assert sw.points[1].saturated
