"""Assumption ablations run on the flit-level simulator.

Each of the paper's modelling assumptions that the simulator can toggle
gets a benchmark quantifying its effect (``benchmarks/results/``
records the outcomes):

* assumption (iv) instantaneous ejection  → ``model_ejection=True``;
* unidirectional links (§2)              → ``bidirectional=True``;
* deterministic routing (assumption v)   → ``routing="adaptive"``;
* Poisson sources (assumption i)         → ON/OFF bursts.

These use a smaller 8x8 network so the whole group stays in benchmark
time; the effects are qualitative and scale with the 16x16 system.
"""

from dataclasses import replace

import pytest

from benchmarks.conftest import save_table
from repro.simulator import Simulation, SimulationConfig
from repro.traffic.burst import OnOffArrivals

BASE = SimulationConfig(
    k=8,
    n=2,
    message_length=16,
    rate=1.5e-3,
    hotspot_fraction=0.3,
    warmup_cycles=3_000,
    measure_cycles=40_000,
    seed=2005,
)


@pytest.mark.benchmark(group="assumptions")
def test_ejection_assumption(benchmark, results_dir):
    def compare():
        rows = []
        for rate in (5e-4, 1.5e-3, 2.2e-3):
            instant = Simulation(replace(BASE, rate=rate)).run()
            real = Simulation(
                replace(BASE, rate=rate, model_ejection=True)
            ).run()
            rows.append(
                (rate, instant.mean_latency, instant.saturated,
                 real.mean_latency, real.saturated)
            )
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    report = "rate | instant-ejection | real-ejection-channel\n" + "\n".join(
        f"{r:.2e} | {a:.1f}{'*' if asat else ''} | {b:.1f}{'*' if bsat else ''}"
        for r, a, asat, b, bsat in rows
    ) + "\n(* = saturated)"
    save_table(results_dir, "assumption_ejection", report)
    print("\n" + report)
    # Real ejection can only slow things down.
    for _, a, asat, b, bsat in rows:
        if not (asat or bsat):
            assert b >= a - 1.0


@pytest.mark.benchmark(group="assumptions")
def test_bidirectional_extension(benchmark, results_dir):
    def compare():
        uni = Simulation(BASE).run()
        bi = Simulation(replace(BASE, bidirectional=True)).run()
        return uni, bi

    uni, bi = benchmark.pedantic(compare, rounds=1, iterations=1)
    report = (
        f"unidirectional: {uni.mean_latency:.1f} cycles, "
        f"{uni.mean_hops:.2f} mean hops\n"
        f"bidirectional : {bi.mean_latency:.1f} cycles, "
        f"{bi.mean_hops:.2f} mean hops"
    )
    save_table(results_dir, "assumption_bidirectional", report)
    print("\n" + report)
    assert bi.mean_hops < uni.mean_hops
    assert bi.mean_latency < uni.mean_latency


@pytest.mark.benchmark(group="assumptions")
def test_adaptive_comparator(benchmark, results_dir):
    def compare():
        rows = []
        for rate in (1.5e-3, 2.4e-3, 3.0e-3):
            det = Simulation(
                replace(BASE, rate=rate, num_vcs=4, hotspot_fraction=0.4)
            ).run()
            ada = Simulation(
                replace(
                    BASE,
                    rate=rate,
                    num_vcs=4,
                    hotspot_fraction=0.4,
                    routing="adaptive",
                )
            ).run()
            rows.append((rate, det, ada))
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    lines = ["rate | deterministic | adaptive"]
    for rate, det, ada in rows:
        d = "saturated" if det.saturated else f"{det.mean_latency:.1f}"
        a = "saturated" if ada.saturated else f"{ada.mean_latency:.1f}"
        lines.append(f"{rate:.2e} | {d} | {a}")
    report = "\n".join(lines)
    save_table(results_dir, "assumption_adaptive", report)
    print("\n" + report)
    # Somewhere past the deterministic knee, adaptive must still drain.
    gains = [
        (det.saturated and not ada.saturated) for _, det, ada in rows
    ]
    assert any(gains), "adaptive should outlast deterministic under hot-spots"


@pytest.mark.benchmark(group="assumptions")
def test_poisson_assumption(benchmark, results_dir):
    def compare():
        rate = 2.0e-3
        poisson = Simulation(replace(BASE, rate=rate)).run()
        bursty = Simulation(
            replace(BASE, rate=rate),
            arrival_model=OnOffArrivals(rate, burstiness=10.0, on_mean=2_000.0),
        ).run()
        return poisson, bursty

    poisson, bursty = benchmark.pedantic(compare, rounds=1, iterations=1)
    report = (
        f"Poisson : {poisson.mean_latency:.1f} cycles "
        f"(saturated={poisson.saturated})\n"
        f"ON/OFF  : {bursty.mean_latency:.1f} cycles "
        f"(saturated={bursty.saturated})"
    )
    save_table(results_dir, "assumption_poisson", report)
    print("\n" + report)
    if not (poisson.saturated or bursty.saturated):
        assert bursty.mean_latency > 0.9 * poisson.mean_latency
