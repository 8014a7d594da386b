"""Flit-level wormhole simulator for k-ary n-cubes.

The validation substrate of the paper: a discrete-event simulator
"operating at the flit level" where "the network cycle time ... is
defined as the transmission time of a single flit across a physical
channel" (paper §4).  The simulator implements assumptions (i)-(vi) of
the analytical model:

* Poisson sources, Pfister–Norton hot-spot destinations;
* fixed message length ``Lm`` flits;
* infinite injection queues, instantaneous ejection;
* deterministic dimension-order routing (x first, then y);
* ``V >= 2`` virtual channels per physical channel with per-VC flit
  buffers; a VC holds the channel for the whole message (wormhole) but
  physical channel *bandwidth* is time-multiplexed flit-by-flit among
  ready VCs (fair round-robin, Dally [3]);
* a non-blocking crossbar: an input VC only ever waits for its
  *outgoing* channel, never for the switch.

Deadlock freedom uses the Dally–Seitz dateline scheme: virtual channels
are split into two classes per physical channel and a message moves to
class 1 when it crosses a ring's wrap-around channel
(:mod:`repro.topology.routing`).

Public front-end: :class:`~repro.simulator.sim.Simulation` with
:class:`~repro.simulator.config.SimulationConfig`.

Three engines produce bit-identical simulations; which one runs follows
from the routing mode and from whether the C kernel loads, and is
decided per run by :class:`~repro.simulator.network.TorusWorkload`:

* :class:`~repro.simulator.span.SpanEngine` — deterministic routing:
  one C call runs a whole window of arrivals (admission of each message
  at its cycle, FCFS VC allocation, link arbitration, header/tail
  events, delivery);
* :class:`~repro.simulator.soa.SoACycleEngine` — adaptive routing: the
  per-cycle structure-of-arrays engine with the link phase in C;
* :class:`~repro.simulator.engine.CycleEngine` — the object-per-message
  reference engine: both routing modes on a host where the C kernel
  does not load, and the oracle the equivalence tests compare against.
"""

from repro.simulator.config import SimulationConfig
from repro.simulator.engine import CycleEngine
from repro.simulator.sim import Simulation, SimulationResult
from repro.simulator.soa import SoACycleEngine
from repro.simulator.span import SpanEngine
from repro.simulator.stats import BatchMeans, LatencyStats

__all__ = [
    "SimulationConfig",
    "Simulation",
    "SimulationResult",
    "BatchMeans",
    "LatencyStats",
    "CycleEngine",
    "SoACycleEngine",
    "SpanEngine",
]
