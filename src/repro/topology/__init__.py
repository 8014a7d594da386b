"""k-ary n-cube topology, addressing and deterministic routing.

The paper studies unidirectional k-ary n-cubes (tori) with dimension-order
(e-cube) wormhole routing.  This subpackage provides:

* :class:`~repro.topology.kary_ncube.KAryNCube` — node addressing, ring
  decomposition, hop metrics and channel enumeration for uni- and
  bi-directional k-ary n-cubes.
* :mod:`~repro.topology.routing` — deterministic dimension-order route
  computation and the Dally–Seitz dateline virtual-channel classes that
  make wormhole routing deadlock-free on rings with wrap-around links.
"""

from repro.topology.kary_ncube import Channel, KAryNCube, Node
from repro.topology.routing import (
    DimensionOrderRouter,
    Route,
    RouteHop,
    dateline_vc_class,
)

__all__ = [
    "Channel",
    "KAryNCube",
    "Node",
    "DimensionOrderRouter",
    "Route",
    "RouteHop",
    "dateline_vc_class",
]
