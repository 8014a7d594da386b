"""Result types returned by the analytical models."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.resilience import PointFailure

__all__ = [
    "LatencyBreakdown",
    "ModelResult",
    "SweepPoint",
    "SweepResult",
]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-class decomposition of the mean message latency.

    All values are in cycles.  The regular components already include
    their path probability (the paper's eq 11 convention), so
    ``regular_total = regular_hot_ring + regular_nonhot_ring +
    regular_enter_x``.
    """

    regular_hot_ring: float
    regular_nonhot_ring: float
    regular_enter_x: float
    hot_from_hot_ring: float
    hot_from_x: float
    regular_source_wait: float
    regular_network_latency: float

    @property
    def regular_total(self) -> float:
        """Mean latency of regular messages, ``S_r`` of eq (11)."""
        return (
            self.regular_hot_ring
            + self.regular_nonhot_ring
            + self.regular_enter_x
        )

    @property
    def hot_total(self) -> float:
        """Mean latency of hot-spot messages, ``S_h`` of eq (21)."""
        return self.hot_from_hot_ring + self.hot_from_x


@dataclass(frozen=True)
class ModelResult:
    """Outcome of one analytical evaluation at a fixed offered load.

    Attributes
    ----------
    rate:
        Per-node generation rate (messages/cycle).
    latency:
        Mean message latency in cycles (eq 10); ``math.inf`` when
        saturated.
    saturated:
        The offered load exceeded the model's saturation point (no
        finite steady state exists / the iteration diverged).
    iterations:
        Fixed-point iterations used.
    breakdown:
        Per-class latency decomposition; ``None`` when saturated.
    mean_multiplexing_x / _hot_ring / _nonhot_ring:
        Average virtual-channel multiplexing degrees (eqs 35-37).
    max_utilization:
        Largest channel utilisation seen by the converged solution —
        useful for locating the saturation point.
    fixed_point_state:
        The converged solver state vector (``None`` when saturated or
        when the model needed no solve).  Pass it as ``initial`` to a
        subsequent ``evaluate`` at a nearby rate to warm-start the
        fixed-point iteration — the mechanism behind
        :class:`~repro.experiments.sweep.SweepEngine`'s fast sweeps.
    """

    rate: float
    latency: float
    saturated: bool
    iterations: int
    breakdown: Optional[LatencyBreakdown] = None
    mean_multiplexing_x: float = float("nan")
    mean_multiplexing_hot_ring: float = float("nan")
    mean_multiplexing_nonhot_ring: float = float("nan")
    max_utilization: float = float("nan")
    fixed_point_state: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def finite(self) -> bool:
        return not self.saturated and math.isfinite(self.latency)


@dataclass(frozen=True)
class SweepPoint:
    """One (rate, latency) sample of a load sweep.

    ``iterations`` records the fixed-point iterations the analytical
    model spent on the point (0 for simulated points) — the quantity
    warm-started sweeps minimise.
    """

    rate: float
    latency: float
    saturated: bool
    iterations: int = 0


@dataclass
class SweepResult:
    """A latency-vs-load curve produced by a model or simulator.

    ``failures`` records grid points that could not be computed after
    exhausting the engine's retry budget (worker crash, per-point
    timeout, or a raised exception) as structured
    :class:`~repro.resilience.PointFailure` records — a failed point is
    skipped in ``points`` (the curve keeps its completed samples)
    instead of aborting the whole sweep.  Fault-free sweeps always have
    an empty ``failures`` list, so result equality is unchanged.
    """

    label: str
    points: List[SweepPoint] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)

    @property
    def rates(self) -> List[float]:
        return [p.rate for p in self.points]

    @property
    def latencies(self) -> List[float]:
        return [p.latency for p in self.points]

    @property
    def total_iterations(self) -> int:
        """Fixed-point iterations summed over the curve's points."""
        return sum(p.iterations for p in self.points)

    def finite_points(self) -> List[SweepPoint]:
        return [p for p in self.points if not p.saturated and math.isfinite(p.latency)]

    def saturation_rate(self) -> Optional[float]:
        """Smallest sampled rate that saturated, or ``None``."""
        for p in self.points:
            if p.saturated:
                return p.rate
        return None
