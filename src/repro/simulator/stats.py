"""Streaming statistics: latency accumulators and batch-means CIs.

The paper runs each simulation "until the network reached its steady
state, that is, until a further increase in simulated network cycles does
not change the collected statistics appreciably".  We implement the
standard batch-means method: post-warmup completions are grouped into
fixed-size batches, the batch averages are treated as (approximately)
independent samples, and a Student-t confidence interval on their mean
quantifies the remaining run-length error.  The interval's Student-t
quantile is computed here from the exact finite series for integer
degrees of freedom, so the runtime needs no statistics library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["LatencyStats", "BatchMeans"]


def _t_coverage(theta: float, df: int) -> float:
    """``P(|T| < sqrt(df) * tan(theta))`` for Student-t ``T`` with integer
    ``df`` degrees of freedom (Abramowitz & Stegun 26.7.3-4)."""
    sin, cos = math.sin(theta), math.cos(theta)
    cos2 = cos * cos
    term = total = 1.0
    if df % 2:
        if df == 1:
            return 2.0 * theta / math.pi
        for j in range(1, (df - 1) // 2):
            term *= cos2 * (2 * j) / (2 * j + 1)
            total += term
        return 2.0 / math.pi * (theta + sin * cos * total)
    for j in range(1, df // 2):
        term *= cos2 * (2 * j - 1) / (2 * j)
        total += term
    return sin * total


def _t_quantile(level: float, df: int) -> float:
    """Two-sided Student-t quantile: the ``t`` with ``P(|T| < t) = level``,
    i.e. the ``0.5 + level / 2`` quantile of ``T`` with ``df`` degrees of
    freedom.

    Newton's method on ``theta = atan(t / sqrt(df))``: the coverage is
    concave in ``theta`` with derivative ``c * cos(theta) ** (df - 1)``,
    so iterates started at ``theta = 0`` rise monotonically to the root
    and the first step that does not rise (beyond rounding) ends the
    search.
    """
    c = 2.0 / math.sqrt(math.pi) * math.exp(
        math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
    )
    theta = 0.0
    for _ in range(100):
        step = (level - _t_coverage(theta, df)) / (
            c * math.cos(theta) ** (df - 1)
        )
        theta += step
        if step <= 1e-15 * theta:
            break
    return math.sqrt(df) * math.tan(theta)


class LatencyStats:
    """Streaming mean/variance/extremes of per-message latencies."""

    __slots__ = ("count", "_mean", "_m2", "min", "max", "total_hops")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total_hops = 0

    def record(self, latency: float, hops: int = 0) -> None:
        """Welford update with one latency sample."""
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.count += 1
        delta = latency - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (latency - self._mean)
        if latency < self.min:
            self.min = latency
        if latency > self.max:
            self.max = latency
        self.total_hops += hops

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else math.nan

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.count if self.count else math.nan

    def merge(self, other: "LatencyStats") -> None:
        """Fold another accumulator into this one (parallel merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total_hops = other.total_hops
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / total
        self._mean = (self._mean * self.count + other._mean * other.count) / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.total_hops += other.total_hops


@dataclass(slots=True)
class BatchMeans:
    """Batch-means estimator of the steady-state mean latency.

    A slots dataclass: :meth:`record` runs once per delivered message on
    the simulator's hot path, so instances carry no ``__dict__``.

    Parameters
    ----------
    batch_size:
        Completions per batch.  The first (partial) batch in progress is
        excluded from interval computation.
    """

    batch_size: int = 500
    _current_sum: float = field(default=0.0, repr=False)
    _current_count: int = field(default=0, repr=False)
    batch_averages: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def record(self, latency: float) -> None:
        self._current_sum += latency
        self._current_count += 1
        if self._current_count == self.batch_size:
            self.batch_averages.append(self._current_sum / self.batch_size)
            self._current_sum = 0.0
            self._current_count = 0

    @property
    def num_batches(self) -> int:
        return len(self.batch_averages)

    def mean(self) -> float:
        if not self.batch_averages:
            return math.nan
        return sum(self.batch_averages) / len(self.batch_averages)

    def confidence_interval(self, level: float = 0.95) -> Optional[float]:
        """Half-width of the Student-t CI on the mean, or ``None`` if
        fewer than two complete batches exist.  ``level`` must lie in
        (0, 1)."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        n = len(self.batch_averages)
        if n < 2:
            return None
        m = self.mean()
        var = sum((b - m) ** 2 for b in self.batch_averages) / (n - 1)
        return _t_quantile(level, n - 1) * math.sqrt(var / n)

    def relative_half_width(self, level: float = 0.95) -> Optional[float]:
        ci = self.confidence_interval(level)
        m = self.mean()
        if ci is None or not m:
            return None
        return ci / abs(m)
