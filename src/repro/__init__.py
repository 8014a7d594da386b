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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.model": ("BlockingServicePolicy", "HotSpotLatencyModel"),
    "repro.core.results": (
        "LatencyBreakdown", "ModelResult", "SweepPoint", "SweepResult",
    ),
    "repro.core.uniform": ("UniformLatencyModel",),
    "repro.core.ndim": ("NDimHotSpotModel",),
    "repro.core.fixed_point": ("FixedPointSolver", "FixedPointStatus"),
    "repro.simulator.config": ("SimulationConfig",),
    "repro.simulator.sim": ("Simulation", "SimulationResult"),
    "repro.topology.kary_ncube": ("KAryNCube",),
    "repro.topology.routing": ("DimensionOrderRouter",),
    "repro.traffic.patterns": ("HotSpotPattern", "UniformPattern"),
    "repro.traffic.burst": (
        "ExponentialArrivals", "OnOffArrivals", "ParetoOnOffArrivals",
    ),
    "repro.traffic.rates": ("ChannelRates", "HotSpotRates"),
})

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
