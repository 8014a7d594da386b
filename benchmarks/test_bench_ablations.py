"""Ablation benchmarks over the model's design choices (DESIGN.md §5).

All model-only (fast); each prints and persists the swept series:

* A — virtual-channel count;
* B — radix at fixed node-count intent;
* C — trip averaging vs the literal entrance reading;
* D — hot-spot fraction sweep at fixed load;
* E — blocking-service policy (transmission / holding / entrance);
* F — dimensionality via the n-dim extension.
"""

import numpy as np
import pytest

from benchmarks.conftest import save_table
from repro.core.model import BlockingServicePolicy, HotSpotLatencyModel
from repro.core.ndim import NDimHotSpotModel
from repro.core.uniform import UniformLatencyModel


@pytest.mark.benchmark(group="ablations")
def test_vc_sweep(benchmark, results_dir):
    def sweep():
        rows = []
        for v in (2, 3, 4, 8):
            m = HotSpotLatencyModel(
                k=16, message_length=32, hotspot_fraction=0.4, num_vcs=v
            )
            rows.append((v, m.saturation_rate(hi=0.01), m.evaluate(2e-4).latency))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = "V | saturation | latency@2e-4\n" + "\n".join(
        f"{v} | {s:.6f} | {l:.1f}" for v, s, l in rows
    )
    save_table(results_dir, "ablation_vc_sweep", report)
    print("\n" + report)
    sats = [s for _, s, _ in rows]
    # Bandwidth-bound: VCs cannot move the saturation point materially.
    assert max(sats) / min(sats) < 1.25


@pytest.mark.benchmark(group="ablations")
def test_radix_sweep(benchmark, results_dir):
    def sweep():
        rows = []
        for k in (8, 16, 32):
            m = HotSpotLatencyModel(k=k, message_length=32, hotspot_fraction=0.4)
            rows.append((k, m.saturation_rate(hi=0.05), m.evaluate(0.0).latency))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = "k | saturation | zero-load latency\n" + "\n".join(
        f"{k} | {s:.6f} | {l:.1f}" for k, s, l in rows
    )
    save_table(results_dir, "ablation_radix_sweep", report)
    print("\n" + report)
    # Hot-sink bound ~ 1/(h k(k-1)(Lm+1)): saturation falls ~k^2.
    sat = {k: s for k, s, _ in rows}
    assert sat[8] / sat[16] == pytest.approx((16 * 15) / (8 * 7), rel=0.35)
    # Zero-load latency grows with k (longer trips).
    lat = [l for _, _, l in rows]
    assert lat[0] < lat[1] < lat[2]


@pytest.mark.benchmark(group="ablations")
def test_trip_averaging(benchmark, results_dir):
    def sweep():
        rows = []
        for rate in np.linspace(0.05e-3, 0.28e-3, 6):
            avg = HotSpotLatencyModel(
                k=16, message_length=32, hotspot_fraction=0.4, trip_averaging=True
            ).evaluate(float(rate))
            lit = HotSpotLatencyModel(
                k=16, message_length=32, hotspot_fraction=0.4, trip_averaging=False
            ).evaluate(float(rate))
            rows.append((float(rate), avg.latency, lit.latency))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = "rate | averaged | literal-entrance\n" + "\n".join(
        f"{r:.6f} | {a:.1f} | {l:.1f}" for r, a, l in rows
    )
    save_table(results_dir, "ablation_trip_averaging", report)
    print("\n" + report)
    for _, a, l in rows:
        if np.isfinite(a) and np.isfinite(l):
            assert a < l  # literal charges the full-ring pipeline


@pytest.mark.benchmark(group="ablations")
def test_hotspot_fraction_sweep(benchmark, results_dir):
    def sweep():
        rate = 1e-4
        rows = []
        for h in (0.0, 0.1, 0.2, 0.4, 0.6, 0.8):
            if h == 0.0:
                m = UniformLatencyModel(k=16, n=2, message_length=32)
            else:
                m = HotSpotLatencyModel(k=16, message_length=32, hotspot_fraction=h)
            res = m.evaluate(rate)
            rows.append((h, res.latency if res.finite else float("inf")))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = "h | latency@1e-4\n" + "\n".join(
        f"{h:.1f} | {l:.1f}" for h, l in rows
    )
    save_table(results_dir, "ablation_hotspot_fraction", report)
    print("\n" + report)
    finite = [l for _, l in rows if np.isfinite(l)]
    assert all(a <= b * 1.02 for a, b in zip(finite, finite[1:])), (
        "latency must rise (weakly) with h at fixed load"
    )
    # A heavy hot-spot share multiplies latency at this fixed load
    # (h=0.8 sits just below its saturation knee of ~1.6e-4).
    assert rows[-1][1] > 2.0 * rows[0][1]


@pytest.mark.benchmark(group="ablations")
def test_blocking_policy(benchmark, results_dir):
    def sweep():
        from repro.core.fixed_point import FixedPointSolver

        rows = []
        for policy in BlockingServicePolicy:
            # A modest iteration budget: the self-referential policies
            # spend their time discovering divergence, which a few
            # hundred iterations establish just as well as 5000.
            m = HotSpotLatencyModel(
                k=16,
                message_length=32,
                hotspot_fraction=0.2,
                blocking_service=policy,
                solver=FixedPointSolver(tol=1e-8, max_iterations=400, damping=0.5),
            )
            rows.append((policy.value, m.saturation_rate(hi=0.01, tol=1e-5)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = "policy | saturation rate\n" + "\n".join(
        f"{p} | {s:.6f}" for p, s in rows
    )
    save_table(results_dir, "ablation_blocking_policy", report)
    print("\n" + report)
    sat = dict(rows)
    assert sat["entrance"] <= sat["holding"] <= sat["transmission"]


@pytest.mark.benchmark(group="ablations")
def test_dimensionality(benchmark, results_dir):
    def sweep():
        rows = []
        for k, n in ((64, 1), (8, 2), (4, 3)):
            m = NDimHotSpotModel(k=k, n=n, message_length=32, hotspot_fraction=0.4)
            rows.append((f"{k}^{n}", m.saturation_rate(hi=0.05),
                         m.evaluate(0.0).latency))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report = "shape | saturation | zero-load latency\n" + "\n".join(
        f"{s} | {r:.6f} | {l:.1f}" for s, r, l in rows
    )
    save_table(results_dir, "ablation_dimensionality", report)
    print("\n" + report)
    assert len(rows) == 3
