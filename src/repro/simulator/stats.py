"""Delivery statistics from arrays: latency moments and batch-means CIs.

The paper runs each simulation "until the network reached its steady
state, that is, until a further increase in simulated network cycles does
not change the collected statistics appreciably".  We implement the
standard batch-means method: post-warmup completions are grouped into
fixed-size batches, the batch averages are treated as (approximately)
independent samples, and a Student-t confidence interval on their mean
quantifies the remaining run-length error.  The interval's Student-t
quantile is computed here from the exact finite series for integer
degrees of freedom, so the runtime needs no statistics library.

Latencies are whole cycles, so the accumulators fold a delivery log in
one call per array: count, sum, sum of squares, minimum, maximum and hop
total are exact integer reductions, and batch sums are cut at fixed
completion counts with the unfinished batch carried to the next call.
Exact sums do not depend on how a log is split into calls or on the
order within a call, so every engine and job count that delivers
the same messages yields the same statistics, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

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
    """Exact moments, extremes and hop total of integer latencies."""

    __slots__ = ("count", "total", "total_sq", "min", "max", "total_hops")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.min = math.inf
        self.max = -math.inf
        self.total_hops = 0

    def fold(self, latencies, hops=None) -> None:
        """Add integer latencies (cycles) and, optionally, their hop
        counts, both array-like of one length."""
        lat = np.asarray(latencies, dtype=np.int64)
        if not lat.size:
            return
        lo, hi = int(lat.min()), int(lat.max())
        if lo < 0:
            raise ValueError(f"latency must be non-negative, got {lo}")
        self.count += lat.size
        self.total += int(lat.sum())
        # Sum squares in int64 chunks small enough not to overflow.
        chunk = max(1, (2**63 - 1) // max(1, hi * hi))
        for i in range(0, lat.size, chunk):
            part = lat[i : i + chunk]
            self.total_sq += int(np.dot(part, part))
        self.min = min(self.min, lo)
        self.max = max(self.max, hi)
        if hops is not None:
            self.total_hops += int(np.sum(hops, dtype=np.int64))

    def record(self, latency: int, hops: int = 0) -> None:
        """Add one latency: the one-message case of :meth:`fold`."""
        self.fold((latency,), (hops,))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        n = self.count
        if n < 2:
            return math.nan
        return (n * self.total_sq - self.total * self.total) / (n * (n - 1))

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else math.nan

    @property
    def mean_hops(self) -> float:
        return self.total_hops / self.count if self.count else math.nan

    def merge(self, other: "LatencyStats") -> None:
        """Fold another accumulator into this one (parallel merge)."""
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.total_hops += other.total_hops


@dataclass(slots=True)
class BatchMeans:
    """Batch-means estimator of the steady-state mean latency.

    Parameters
    ----------
    batch_size:
        Completions per batch.  The batch in progress is excluded from
        interval computation.
    """

    batch_size: int = 500
    _current_sum: int = field(default=0, repr=False)
    _current_count: int = field(default=0, repr=False)
    batch_averages: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def fold(self, latencies) -> None:
        """Add integer latencies (cycles), in completion order."""
        lat = np.asarray(latencies, dtype=np.int64)
        size = self.batch_size
        # Exclusive ends of the batches these latencies complete.
        ends = np.arange(size - self._current_count, lat.size + 1, size)
        if ends.size:
            sums = np.diff(np.cumsum(lat)[ends - 1], prepend=0)
            sums[0] += self._current_sum
            self.batch_averages.extend((sums / size).tolist())
            self._current_sum = int(lat[ends[-1] :].sum())
        else:
            self._current_sum += int(lat.sum())
        self._current_count = (self._current_count + lat.size) % size

    def record(self, latency: int) -> None:
        """Add one latency: the one-message case of :meth:`fold`."""
        self.fold((latency,))

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
