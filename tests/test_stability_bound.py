"""The model saturates no later than the hot channel's stability bound.

The busiest channel of the hot-spot torus is the last-dimension channel
one hop upstream of the hot node, carrying
``HotSpotRates(k, lam, h).total_rate_y(1)`` messages per cycle of ``Lm``
flits each.  Its utilisation ``rho`` is linear in ``lam``, and no queue
is stable at ``rho >= 1``, so the model's saturation rate may not exceed
the rate where ``rho`` reaches 1.  Every panel of Figures 1-2 and every
configuration of the ablation benchmarks is checked; today's margins
are 0.97 of the bound at ``Lm = 32`` and 0.99 at ``Lm = 100``.
"""

import pytest

from repro.core.fixed_point import FixedPointSolver
from repro.core.model import BlockingServicePolicy, HotSpotLatencyModel
from repro.core.ndim import NDimHotSpotModel
from repro.core.uniform import UniformLatencyModel
from repro.experiments.figures import ALL_PANELS
from repro.traffic.rates import HotSpotRates


def unit_rho(k, message_length, h):
    """Hot-channel utilisation per unit generation rate."""
    return HotSpotRates(k, 1.0, h).total_rate_y(1) * message_length


HOT_SPOT_CONFIGS = {
    **{
        name: dict(k=p.k, message_length=p.message_length,
                   hotspot_fraction=p.hotspot_fraction, num_vcs=p.num_vcs)
        for name, p in ALL_PANELS.items()
    },
    # benchmarks/test_bench_ablations.py
    **{f"vcs{v}": dict(k=16, message_length=32, hotspot_fraction=0.4, num_vcs=v)
       for v in (3, 4, 8)},
    **{f"k{k}": dict(k=k, message_length=32, hotspot_fraction=0.4)
       for k in (8, 32)},
    "literal-entrance": dict(k=16, message_length=32, hotspot_fraction=0.4,
                             trip_averaging=False),
    **{f"h{h}": dict(k=16, message_length=32, hotspot_fraction=h)
       for h in (0.1, 0.2, 0.4, 0.6, 0.8)},
    **{f"policy-{p.value}": dict(
        k=16, message_length=32, hotspot_fraction=0.2, blocking_service=p,
        solver=FixedPointSolver(tol=1e-8, max_iterations=400, damping=0.5))
       for p in BlockingServicePolicy},
}


@pytest.mark.parametrize("name", sorted(HOT_SPOT_CONFIGS))
def test_hot_spot_model_saturates_below_the_bound(name):
    cfg = HOT_SPOT_CONFIGS[name]
    sat = HotSpotLatencyModel(**cfg).saturation_rate()
    bound = 1.0 / unit_rho(cfg["k"], cfg["message_length"], cfg["hotspot_fraction"])
    assert sat <= bound, (name, sat / bound)


def test_uniform_model_saturates_below_the_bound():
    # The h = 0 row of the hot-spot fraction ablation.
    sat = UniformLatencyModel(k=16, n=2, message_length=32).saturation_rate()
    assert sat <= 1.0 / unit_rho(16, 32, 0.0)


@pytest.mark.parametrize("k,n", [(64, 1), (8, 2), (4, 3)])
def test_ndim_model_saturates_below_the_bound(k, n):
    # The dimensionality ablation: the busiest channel is the last
    # dimension's, one hop upstream of the hot node, which in two
    # dimensions is HotSpotRates' total_rate_y(1).
    h, lm = 0.4, 32
    m = NDimHotSpotModel(k=k, n=n, message_length=lm, hotspot_fraction=h)
    rho = lm * ((1 - h) * (k - 1) / 2 + m.hot_rate(n - 1, 1))
    if n == 2:
        assert rho == pytest.approx(unit_rho(k, lm, h), rel=1e-12)
    assert m.saturation_rate(hi=0.05) <= 1.0 / rho
