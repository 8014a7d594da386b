"""repro — Analytical modelling of hot-spot traffic in k-ary n-cubes.

A production-quality reproduction of

    S. Loucif, M. Ould-Khaoua, G. Min,
    "Analytical Modelling of Hot-Spot Traffic in Deterministically-Routed
    K-Ary N-Cubes", Proc. 19th IEEE IPDPS, 2005.

The package provides the paper's analytical latency model
(:class:`~repro.core.model.HotSpotLatencyModel`), every substrate it
depends on (topology, deterministic routing, queueing primitives,
traffic models) and the flit-level wormhole simulator used to validate
it, plus the experiment harness that regenerates the paper's Figures 1
and 2.

Quickstart
----------
>>> from repro import HotSpotLatencyModel, Simulation, SimulationConfig
>>> model = HotSpotLatencyModel(k=16, message_length=32, hotspot_fraction=0.2)
>>> model.evaluate(0.0003).latency  # doctest: +SKIP
410.7...
>>> cfg = SimulationConfig(k=16, message_length=32, rate=0.0003,
...                        hotspot_fraction=0.2)
>>> Simulation(cfg).run().mean_latency  # doctest: +SKIP
395.2...
"""

from repro.core import (
    BlockingServicePolicy,
    FixedPointSolver,
    FixedPointStatus,
    HotSpotLatencyModel,
    LatencyBreakdown,
    ModelResult,
    NDimHotSpotModel,
    SweepPoint,
    SweepResult,
    UniformLatencyModel,
)
from repro.simulator import Simulation, SimulationConfig, SimulationResult
from repro.topology import DimensionOrderRouter, KAryNCube
from repro.traffic import (
    ChannelRates,
    ExponentialArrivals,
    HotSpotPattern,
    HotSpotRates,
    OnOffArrivals,
    ParetoOnOffArrivals,
    UniformPattern,
)

__version__ = "1.0.0"

__all__ = [
    "HotSpotLatencyModel",
    "UniformLatencyModel",
    "NDimHotSpotModel",
    "BlockingServicePolicy",
    "ExponentialArrivals",
    "OnOffArrivals",
    "ParetoOnOffArrivals",
    "ModelResult",
    "LatencyBreakdown",
    "SweepPoint",
    "SweepResult",
    "FixedPointSolver",
    "FixedPointStatus",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "KAryNCube",
    "DimensionOrderRouter",
    "HotSpotPattern",
    "UniformPattern",
    "ChannelRates",
    "HotSpotRates",
    "__version__",
]
