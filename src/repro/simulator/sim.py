"""Simulation front-end: configure, run, collect results.

:class:`Simulation` is the user-facing entry point mirroring the
analytical model's interface: construct with a
:class:`~repro.simulator.config.SimulationConfig`, call :meth:`run`, get
a :class:`SimulationResult` whose ``mean_latency`` is directly comparable
with :meth:`repro.core.model.HotSpotLatencyModel.evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.simulator.config import SimulationConfig

if TYPE_CHECKING:
    from repro.traffic.burst import ArrivalModel
    from repro.traffic.patterns import DestinationPattern

__all__ = ["Simulation", "SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Measured outcome of one simulation run.

    ``saturated`` mirrors the analytical model's notion: the offered
    load has no steady state, so ``mean_latency`` — if finite —
    underestimates an unbounded quantity.  A point is saturated when
    some channel is offered one flit per cycle or more
    (:meth:`~repro.simulator.network.TorusWorkload.offered_loads`),
    whatever the finite window measured, or when the run shows it: a
    runaway backlog or a completion deficit over the measurement window.
    """

    config: SimulationConfig
    mean_latency: float
    ci95: Optional[float]
    mean_latency_regular: float
    mean_latency_hot: float
    num_completed: int
    num_generated: int
    saturated: bool
    mean_hops: float
    max_channel_utilization: float
    hot_sink_utilization: float
    cycles_run: int

    @property
    def rate(self) -> float:
        return self.config.rate


class Simulation:
    """One flit-level simulation of the paper's workload.

    Examples
    --------
    >>> cfg = SimulationConfig(k=8, message_length=16, rate=1e-3,
    ...                        hotspot_fraction=0.2, warmup_cycles=2000,
    ...                        measure_cycles=20000, seed=7)
    >>> result = Simulation(cfg).run()
    >>> result.num_completed > 0
    True
    """

    def __init__(
        self,
        config: SimulationConfig,
        pattern: Optional[DestinationPattern] = None,
        arrival_model: Optional[ArrivalModel] = None,
    ) -> None:
        # The network and its engines load on the first simulation, not
        # with every module that names this class (the sweep engine).
        from repro.simulator.network import TorusWorkload

        self.config = config
        self.workload = TorusWorkload(
            config, pattern=pattern, arrival_model=arrival_model
        )

    def run(self) -> SimulationResult:
        w = self.workload
        w.run()
        cfg = w.config
        saturated = (
            float(w.offered_loads().max()) >= 1.0
            or w.backlog_saturated()
            or w.drain_ratio() < cfg.min_drain_ratio
        )
        util = w.measured_channel_utilization()
        return SimulationResult(
            config=cfg,
            mean_latency=w.all_stats.mean,
            ci95=w.batches.confidence_interval(0.95),
            mean_latency_regular=w.regular_stats.mean,
            mean_latency_hot=w.hot_stats.mean,
            num_completed=w.all_stats.count,
            num_generated=w.measured_generated,
            saturated=saturated,
            mean_hops=w.all_stats.mean_hops,
            max_channel_utilization=float(util.max()) if util.size else 0.0,
            hot_sink_utilization=w.hot_sink_channel_utilization(),
            cycles_run=w.engine.counters.cycles_run,
        )
