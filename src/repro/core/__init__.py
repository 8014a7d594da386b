"""The paper's analytical latency model and baselines.

* :mod:`~repro.core.equations` — pure-function forms of the paper's
  equations (path probabilities, service-time recurrences).
* :mod:`~repro.core.fixed_point` — damped fixed-point solver used to
  resolve the interdependencies between model variables (paper §3:
  "the different variables of the model are computed using iterative
  techniques").
* :mod:`~repro.core.model` — :class:`HotSpotLatencyModel`, the paper's
  contribution (eqs 1-37) for the 2-D unidirectional torus.
* :mod:`~repro.core.uniform` — uniform-traffic baseline model (the
  ``h = 0`` degenerate case, cross-checking against the classic
  deterministic-routing models the paper builds on).
* :mod:`~repro.core.ndim` — the n-dimensional generalisation the paper
  sketches ("can be easily extended"); at ``k = 2`` it is the binary
  hypercube of the paper's predecessor model.
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
})

__all__ = [
    "HotSpotLatencyModel",
    "BlockingServicePolicy",
    "UniformLatencyModel",
    "NDimHotSpotModel",
    "ModelResult",
    "LatencyBreakdown",
    "SweepPoint",
    "SweepResult",
    "FixedPointSolver",
    "FixedPointStatus",
]
