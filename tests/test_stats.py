"""Unit tests for repro.simulator.stats."""

import math
import statistics

import numpy as np
import pytest

from repro.simulator.stats import BatchMeans, LatencyStats, _t_quantile

LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)


class WelfordOracle:
    """Per-message reference: Welford's mean and variance, running
    extremes and hop total, and batch averages closed one message at a
    time."""

    def __init__(self, batch_size):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total_hops = 0
        self.batch_size = batch_size
        self.batch_sum = 0.0
        self.batch_count = 0
        self.batch_averages = []

    def record(self, latency, hops):
        self.count += 1
        delta = latency - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (latency - self.mean)
        self.min = min(self.min, latency)
        self.max = max(self.max, latency)
        self.total_hops += hops
        self.batch_sum += latency
        self.batch_count += 1
        if self.batch_count == self.batch_size:
            self.batch_averages.append(self.batch_sum / self.batch_size)
            self.batch_sum = 0.0
            self.batch_count = 0

    @property
    def variance(self):
        return self.m2 / (self.count - 1)


class TestFoldMatchesWelford:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_splits(self, seed):
        # Integer latencies, some far in the tail, folded in calls of
        # random size (empty calls included): exact fields equal the
        # per-message oracle, the moments agree to 1e-12 relative.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1_000, 5_000))
        latency = rng.geometric(1 / 60, size=n) + rng.integers(0, 3, n) * 5_000
        hops = rng.integers(1, 16, size=n)
        batch_size = int(rng.integers(1, 300))
        oracle = WelfordOracle(batch_size)
        for lat, hop in zip(latency.tolist(), hops.tolist()):
            oracle.record(lat, hop)
        stats, batches = LatencyStats(), BatchMeans(batch_size=batch_size)
        cuts = np.sort(rng.integers(0, n + 1, size=int(rng.integers(1, 40))))
        for part_lat, part_hops in zip(np.split(latency, cuts), np.split(hops, cuts)):
            stats.fold(part_lat, part_hops)
            batches.fold(part_lat)
        assert stats.count == oracle.count
        assert (stats.min, stats.max) == (oracle.min, oracle.max)
        assert stats.total_hops == oracle.total_hops
        assert batches.batch_averages == oracle.batch_averages
        reference = BatchMeans(batch_size=batch_size)
        reference.batch_averages = oracle.batch_averages
        assert batches.confidence_interval() == reference.confidence_interval()
        assert stats.mean == pytest.approx(oracle.mean, rel=1e-12)
        assert stats.variance == pytest.approx(oracle.variance, rel=1e-12)

    def test_large_latencies_do_not_overflow(self):
        # Squares of latencies near 2**31 overflow int64 within a few
        # terms; the exact sum of squares must not.
        latency = np.full(10, 2**31 + 7, dtype=np.int64)
        stats = LatencyStats()
        stats.fold(latency)
        assert stats.total_sq == 10 * (2**31 + 7) ** 2
        assert stats.variance == 0.0


class TestLatencyStats:
    def test_empty(self):
        s = LatencyStats()
        assert s.count == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.variance)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.geometric(1 / 50, size=500)
        s = LatencyStats()
        s.fold(data)
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
        data = rng.integers(1, 100, size=300)
        whole = LatencyStats()
        for x in data:
            whole.record(int(x))
        a, b = LatencyStats(), LatencyStats()
        a.fold(data[:120])
        b.fold(data[120:])
        a.merge(b)
        assert a.count == whole.count
        assert a.mean == whole.mean
        assert a.variance == whole.variance

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
        bm.fold(rng.geometric(0.1, size=10_000))  # mean 10
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
