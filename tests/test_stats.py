"""Unit tests for repro.simulator.stats."""

import math
import statistics

import numpy as np
import pytest

from repro.simulator.stats import BatchMeans, LatencyStats, _t_quantile

LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


class TestLatencyStats:
    def test_empty(self):
        s = LatencyStats()
        assert s.count == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.variance)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.exponential(50, size=500)
        s = LatencyStats()
        for x in data:
            s.record(float(x))
        assert s.mean == pytest.approx(float(np.mean(data)))
        assert s.variance == pytest.approx(float(np.var(data, ddof=1)))
        assert s.min == pytest.approx(float(data.min()))
        assert s.max == pytest.approx(float(data.max()))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1.0)

    def test_hops_accumulate(self):
        s = LatencyStats()
        s.record(10, hops=3)
        s.record(20, hops=5)
        assert s.mean_hops == pytest.approx(4.0)

    def test_merge_equals_sequential(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(1, 100, size=300)
        whole = LatencyStats()
        for x in data:
            whole.record(float(x))
        a, b = LatencyStats(), LatencyStats()
        for x in data[:120]:
            a.record(float(x))
        for x in data[120:]:
            b.record(float(x))
        a.merge(b)
        assert a.count == whole.count
        assert a.mean == pytest.approx(whole.mean)
        assert a.variance == pytest.approx(whole.variance)

    def test_merge_with_empty(self):
        a = LatencyStats()
        b = LatencyStats()
        b.record(5.0)
        a.merge(b)
        assert a.count == 1 and a.mean == 5.0
        b.merge(LatencyStats())
        assert b.count == 1


class TestBatchMeans:
    def test_batches_formed(self):
        bm = BatchMeans(batch_size=10)
        for i in range(35):
            bm.record(float(i))
        assert bm.num_batches == 3
        assert bm.batch_averages[0] == pytest.approx(4.5)

    def test_ci_requires_two_batches(self):
        bm = BatchMeans(batch_size=10)
        for i in range(10):
            bm.record(1.0)
        assert bm.confidence_interval() is None

    def test_ci_zero_for_constant_data(self):
        bm = BatchMeans(batch_size=5)
        for _ in range(25):
            bm.record(42.0)
        assert bm.mean() == 42.0
        assert bm.confidence_interval() == pytest.approx(0.0)

    def test_ci_covers_true_mean(self):
        rng = np.random.default_rng(3)
        bm = BatchMeans(batch_size=100)
        for x in rng.exponential(10.0, size=10_000):
            bm.record(float(x))
        ci = bm.confidence_interval(0.95)
        assert ci is not None
        assert abs(bm.mean() - 10.0) < 3 * ci  # generous but meaningful

    def test_relative_half_width(self):
        bm = BatchMeans(batch_size=5)
        for _ in range(25):
            bm.record(10.0)
        assert bm.relative_half_width() == pytest.approx(0.0)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            BatchMeans(batch_size=0)

    def test_ci_is_student_t_half_width(self):
        # Batch means 1, 2, 3: sample variance 1, df 2.
        bm = BatchMeans(batch_size=1)
        for x in (1.0, 2.0, 3.0):
            bm.record(x)
        t = 0.95 * math.sqrt(2 / (1 - 0.95**2))
        assert bm.confidence_interval(0.95) == pytest.approx(
            t / math.sqrt(3), rel=1e-12
        )

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_ci_level_outside_unit_interval_rejected(self, level):
        bm = BatchMeans(batch_size=1)
        for x in (1.0, 2.0, 3.0):
            bm.record(x)
        with pytest.raises(ValueError, match="level"):
            bm.confidence_interval(level)


class TestTQuantile:
    """The two-sided Student-t quantile behind ``confidence_interval``."""

    @pytest.mark.parametrize("level", LEVELS)
    def test_matches_scipy(self, level):
        scipy_stats = pytest.importorskip("scipy.stats")
        for df in [*range(1, 201), 500, 1000, 5000]:
            want = float(scipy_stats.t.ppf(0.5 + level / 2, df))
            got = _t_quantile(level, df)
            assert abs(got - want) <= 1e-10 * want, (df, got, want)

    @pytest.mark.parametrize("level", LEVELS)
    def test_one_degree_of_freedom_is_cauchy(self, level):
        assert _t_quantile(level, 1) == pytest.approx(
            math.tan(math.pi * level / 2), rel=1e-12
        )

    @pytest.mark.parametrize("level", LEVELS)
    def test_two_degrees_of_freedom_closed_form(self, level):
        assert _t_quantile(level, 2) == pytest.approx(
            level * math.sqrt(2 / (1 - level**2)), rel=1e-12
        )

    @pytest.mark.parametrize("df", [1, 2, 3, 10])
    def test_level_next_to_one_stays_positive(self, df):
        # Rounding must not carry atan(t / sqrt(df)) past pi/2.
        t = _t_quantile(math.nextafter(1.0, 0.0), df)
        assert 0.0 < t < math.inf

    @pytest.mark.parametrize("level", LEVELS)
    def test_large_df_approaches_normal(self, level):
        z = statistics.NormalDist().inv_cdf(0.5 + level / 2)
        assert abs(_t_quantile(level, 10_000) - z) <= 1e-3
