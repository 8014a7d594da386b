"""Throughput benchmarks: model solve speed and simulator cycle rate.

These are conventional pytest-benchmark timings (multiple rounds) of the
two engines a user pays for: one analytical evaluation at moderate load,
and flit-level simulation throughput in cycles/second (reported via
``extra_info``).

The configurations and the throughput arithmetic come from
:mod:`repro.bench` — the same timing path the ``repro bench``
subcommand records into ``BENCH_*.json`` reports — so pytest-benchmark
numbers and committed baselines are directly comparable.
"""

import pytest

from repro import bench
from repro.core.uniform import UniformLatencyModel
from repro.simulator import kernel
from repro.simulator.router import RouteTable
from repro.topology import KAryNCube


@pytest.mark.benchmark(group="speed")
def test_model_evaluate_speed(benchmark):
    model = bench.bench_model()
    result = benchmark(lambda: model.evaluate(2e-4))
    assert result.finite


@pytest.mark.benchmark(group="speed")
def test_model_saturation_search_speed(benchmark):
    from repro.core.model import HotSpotLatencyModel

    model = HotSpotLatencyModel(k=16, message_length=32, hotspot_fraction=0.2)
    rate = benchmark.pedantic(
        lambda: model.saturation_rate(hi=0.01, tol=1e-6), rounds=3, iterations=1
    )
    assert 1e-5 < rate < 1e-2

@pytest.mark.benchmark(group="speed")
def test_uniform_model_speed(benchmark):
    model = UniformLatencyModel(k=16, n=2, message_length=32)
    result = benchmark(lambda: model.evaluate(1e-3))
    assert result.finite


@pytest.mark.benchmark(group="speed")
def test_simulator_cycle_rate(benchmark):
    cfg = bench.bench_sim_config()

    run = benchmark.pedantic(
        lambda: bench.run_sim_once(cfg), rounds=3, iterations=1
    )
    stats = bench.throughput_stats(run, benchmark.stats["mean"])
    benchmark.extra_info["cycles_per_second"] = stats["cycles_per_sec"]
    benchmark.extra_info["flits_per_second"] = stats["flits_per_sec"]
    benchmark.extra_info["engine"] = f"{run.engine}/{run.kernel}"
    benchmark.extra_info["completions"] = run.completed
    assert run.completed > 0


@pytest.mark.benchmark(group="speed")
def test_reference_engine_cycle_rate(benchmark, monkeypatch):
    """The reference engine's throughput — the correctness oracle, and
    what a host without a C compiler runs — tracked alongside the
    compiled engines so the recorded speedup ratio stays honest.  Same
    window as test_simulator_cycle_rate: per-run fixed costs amortize
    equally.  Hiding the loaded kernel takes the compiler-less path."""
    monkeypatch.setattr(kernel, "_loaded", None)
    monkeypatch.setattr(kernel, "_load_attempted", True)
    cfg = bench.bench_sim_config()

    run = benchmark.pedantic(
        lambda: bench.run_sim_once(cfg), rounds=3, iterations=1
    )
    stats = bench.throughput_stats(run, benchmark.stats["mean"])
    benchmark.extra_info["cycles_per_second"] = stats["cycles_per_sec"]
    assert run.engine == "reference"
    assert run.completed > 0


@pytest.mark.benchmark(group="speed")
def test_route_table_throughput(benchmark):
    net = KAryNCube(k=16, n=2)
    table = RouteTable(net)
    pairs = [(s, (s * 37 + 11) % 256) for s in range(256)]
    pairs = [(s, d) for s, d in pairs if s != d]

    def route_all():
        total = 0
        for s, d in pairs:
            total += len(table.route(s, d)[0])
        return total

    total = benchmark(route_all)
    assert total > 0
