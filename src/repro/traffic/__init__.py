"""Traffic patterns, arrival processes and analytical channel rates.

* :mod:`~repro.traffic.patterns` — destination distributions: the
  Pfister–Norton hot-spot pattern used by the paper (assumption ii),
  plus uniform and several classic permutation patterns used by the
  extended examples.
* :mod:`~repro.traffic.burst` — per-source arrival processes: the
  paper's Poisson sources (assumption i) and the bursty alternatives.
* :mod:`~repro.traffic.rates` — closed-form channel traffic rates of the
  analytical model (eqs 1-9).
"""

from repro.traffic.patterns import (
    BitReversalPattern,
    DestinationPattern,
    HotSpotPattern,
    MatrixPattern,
    TransposePattern,
    UniformPattern,
)
from repro.traffic.burst import (
    ArrivalModel,
    ExponentialArrivals,
    OnOffArrivals,
    ParetoOnOffArrivals,
)
from repro.traffic.rates import ChannelRates, HotSpotRates

__all__ = [
    "DestinationPattern",
    "HotSpotPattern",
    "UniformPattern",
    "TransposePattern",
    "BitReversalPattern",
    "MatrixPattern",
    "ArrivalModel",
    "ExponentialArrivals",
    "OnOffArrivals",
    "ParetoOnOffArrivals",
    "ChannelRates",
    "HotSpotRates",
]
