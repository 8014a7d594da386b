"""Arrival processes: the paper's Poisson sources and bursty alternatives.

The conclusion of the paper: "there have been some attempts to construct
analytical models for interconnection networks operating under
non-Poissonian traffic load, including bursty and self-similar traffic
... Our next objective is to extend the above modelling approach to deal
with such traffic patterns."  This module supplies the workload side of
that extension for the *simulator*:

* :class:`ExponentialArrivals` — the paper's Poisson process (renewal
  with exponential gaps), the default everywhere;
* :class:`OnOffArrivals` — a two-state Markov-modulated process: a
  source alternates exponential ON periods (generating at an elevated
  rate) and OFF periods (silent).  Mean rate is held at ``rate`` while
  the burstiness parameter concentrates the arrivals;
* :class:`ParetoOnOffArrivals` — ON/OFF with heavy-tailed (Pareto)
  sojourn times, the standard construction whose superposition over many
  sources exhibits self-similar traffic (Willinger et al.).

A model serves every source of a workload at once:
:meth:`ArrivalModel.sample_gaps` draws the next inter-arrival gap of
each source it is given, in one vectorised call on the workload's one
generator, and a model with memory (the ON/OFF sources) keeps each
source's state in an array indexed by source rank.  The workload takes
its own copy, sized for its sources, through :meth:`ArrivalModel.fresh`.
The models plug into :class:`~repro.simulator.network.TorusWorkload`
via the ``arrival_model`` parameter; the analytical model retains its
Poisson assumption (i), so comparing the two under bursty load
quantifies exactly the gap the paper's future work targets (see
``examples/bursty_traffic.py``).
"""

from __future__ import annotations

import abc
import copy

import numpy as np

__all__ = [
    "ArrivalModel",
    "ExponentialArrivals",
    "OnOffArrivals",
    "ParetoOnOffArrivals",
]


class ArrivalModel(abc.ABC):
    """Inter-arrival process of a workload's sources.

    Parameters are fixed at construction; per-source state, where the
    process has any, lives in arrays sized by :meth:`fresh`.
    """

    @abc.abstractmethod
    def sample_gaps(self, sources: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The next inter-arrival gap (cycles, continuous) of each of
        ``sources`` — distinct ranks below the count given to
        :meth:`fresh` — advancing their state; one call serves them all."""

    def fresh(self, num_sources: int = 1) -> "ArrivalModel":
        """Independent copy for ``num_sources`` sources, every source's
        state reset; a model with per-source state overrides this to
        size its arrays."""
        return copy.copy(self)

    @property
    @abc.abstractmethod
    def mean_rate(self) -> float:
        """Long-run arrivals per cycle (what eq 3 calls ``lambda``)."""


class ExponentialArrivals(ArrivalModel):
    """Poisson process of rate ``rate`` (assumption i of the paper)."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)

    def sample_gaps(self, sources: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Memoryless: one exponential draw per source, in the given order.
        return rng.exponential(1.0 / self.rate, size=len(sources))

    @property
    def mean_rate(self) -> float:
        return self.rate


class OnOffArrivals(ArrivalModel):
    """Markov-modulated ON/OFF source with exponential sojourns.

    The source spends exponential ON periods of mean ``on_mean`` cycles
    generating a Poisson stream at ``peak_rate``, then exponential OFF
    periods sized so the long-run mean equals ``rate``:

        duty = rate / peak_rate,   off_mean = on_mean * (1 - duty)/duty.

    ``burstiness = peak_rate / rate`` (> 1) measures how concentrated
    the arrivals are; ``burstiness -> 1`` recovers Poisson.  Every source
    starts at the end of an ON period, so its first gap opens with an
    OFF period.
    """

    def __init__(
        self,
        rate: float,
        burstiness: float = 5.0,
        on_mean: float = 200.0,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burstiness < 1.0:
            raise ValueError(f"burstiness must be >= 1, got {burstiness}")
        if on_mean <= 0:
            raise ValueError(f"on_mean must be positive, got {on_mean}")
        self.rate = float(rate)
        self.burstiness = float(burstiness)
        self.on_mean = float(on_mean)
        self.peak_rate = self.rate * self.burstiness
        duty = 1.0 / self.burstiness
        self.off_mean = self.on_mean * (1.0 - duty) / duty if duty < 1 else 0.0
        # Remaining ON time of each source.
        self._on_left = np.zeros(1)

    def _sojourn(self, rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
        """``size`` ON or OFF period lengths of mean ``mean``."""
        return rng.exponential(mean, size=size)

    def sample_gaps(self, sources: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Rounds over the sources still without an arrival: those at the
        # end of an ON period draw an OFF period and a new ON period
        # (in that order, for all of them), then every one draws a
        # candidate gap at the peak rate; a candidate that outlasts the
        # ON period burns the period and goes to the next round.
        on_left = self._on_left[sources]
        gap = np.zeros(len(sources))
        todo = np.arange(len(sources))
        while todo.size:
            renew = todo[on_left[todo] <= 0.0]
            if renew.size:
                if self.off_mean > 0.0:
                    gap[renew] += self._sojourn(rng, self.off_mean, renew.size)
                on_left[renew] = self._sojourn(rng, self.on_mean, renew.size)
            candidate = rng.exponential(1.0 / self.peak_rate, size=todo.size)
            fits = candidate <= on_left[todo]
            done = todo[fits]
            gap[done] += candidate[fits]
            on_left[done] -= candidate[fits]
            todo = todo[~fits]
            gap[todo] += on_left[todo]
            on_left[todo] = 0.0
        self._on_left[sources] = on_left
        return gap

    def fresh(self, num_sources: int = 1) -> "OnOffArrivals":
        twin = super().fresh(num_sources)
        twin._on_left = np.zeros(num_sources)
        return twin

    @property
    def mean_rate(self) -> float:
        return self.rate


class ParetoOnOffArrivals(OnOffArrivals):
    """ON/OFF source with Pareto-distributed sojourn times.

    Heavy-tailed ON/OFF sojourns (shape ``alpha`` in (1, 2)) give the
    source long-range dependence; aggregating many such sources yields
    (asymptotically) self-similar traffic — the workload class the
    paper's conclusion points at.  Mean rate is matched to ``rate`` as
    in :class:`OnOffArrivals`.
    """

    def __init__(
        self,
        rate: float,
        burstiness: float = 5.0,
        on_mean: float = 200.0,
        alpha: float = 1.5,
    ) -> None:
        if not 1.0 < alpha < 2.0:
            raise ValueError(f"alpha must be in (1, 2), got {alpha}")
        super().__init__(rate, burstiness, on_mean)
        self.alpha = float(alpha)

    def _pareto(self, rng: np.random.Generator, mean: float, size=None):
        # Pareto with shape alpha and mean `mean`: x_m = mean*(alpha-1)/alpha.
        xm = mean * (self.alpha - 1.0) / self.alpha
        return xm / rng.random(size) ** (1.0 / self.alpha)

    def _sojourn(self, rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
        return self._pareto(rng, mean, size)
