"""Cross-engine equivalence: compiled engines vs the reference engine.

The compiled engines are only allowed to be *faster* than the reference
engine, never different: delivered-message streams (ids, completion
cycles, generation times), aggregate counters and per-channel flit
counts must agree bit for bit on every configuration — deterministic
and adaptive routing, uniform and hot-spot traffic, with and without
ejection modelling.  With the C kernel loaded, deterministic runs go
through the whole-span engine (:class:`~repro.simulator.span.SpanEngine`)
and adaptive runs through the per-cycle one
(:class:`~repro.simulator.soa.SoACycleEngine`); with the kernel hidden,
as on a host without a compiler, both run on the reference
:class:`~repro.simulator.engine.CycleEngine`, the oracle.

A hypothesis property sweeps random small configurations; pinned
example cases keep the matrix covered even on --hypothesis-seed reruns.
"""

import dataclasses
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import (
    CycleEngine,
    Simulation,
    SimulationConfig,
    SoACycleEngine,
    SpanEngine,
)
from repro.simulator import kernel, span
from repro.simulator.kernel import c_kernel_available
from repro.simulator.network import TorusWorkload
from repro.store import config_key

requires_kernel = pytest.mark.skipif(
    not c_kernel_available(), reason="no C compiler"
)


@contextmanager
def kernel_hidden():
    """Hide the loaded C kernel, as on a host without a compiler."""
    saved = kernel._loaded, kernel._load_attempted
    kernel._loaded, kernel._load_attempted = None, True
    try:
        yield
    finally:
        kernel._loaded, kernel._load_attempted = saved


def run_traced(cfg: SimulationConfig, compiled: bool):
    """Run a workload and capture everything that must match.

    ``compiled=False`` hides the C kernel, so the run takes the
    compiler-less path: the reference engine.
    """
    with nullcontext() if compiled else kernel_hidden():
        w = TorusWorkload(cfg)
    deliveries = []
    original = w._record_deliveries

    def hook(msg_ids, completed, generated, hops, hot):
        deliveries.extend(zip(msg_ids.tolist(), completed.tolist(),
                              generated.tolist(), hot.tolist(), hops.tolist()))
        original(msg_ids, completed, generated, hops, hot)

    w._record_deliveries = hook
    w.run()
    c = w.engine.counters
    return {
        "workload": w,
        "deliveries": deliveries,
        "counters": (c.generated, c.completed, c.flit_moves, c.cycles_run),
        "channel_flits": w.engine.channel_flit_counts.copy(),
        "mean": w.all_stats.mean,
        "count": w.all_stats.count,
    }


def assert_identical(ref, soa, label):
    assert ref["counters"] == soa["counters"], label
    assert ref["deliveries"] == soa["deliveries"], label
    assert np.array_equal(ref["channel_flits"], soa["channel_flits"]), label
    assert ref["count"] == soa["count"], label
    if ref["count"]:
        assert ref["mean"] == soa["mean"], label


def assert_above_zero_load(trace, cfg):
    """No message beats its contention-free latency: the header needs
    one cycle per hop and the tail ``Lm - 1`` more."""
    for msg_id, cycle, generated, _, hops in trace["deliveries"]:
        assert cycle - generated + 1 >= hops + cfg.message_length - 1, msg_id


def assert_compiled_matches_reference(cfg):
    """The compiled path matches the reference; returns both traces."""
    ref = run_traced(cfg, compiled=False)
    assert type(ref["workload"].engine) is CycleEngine
    run = run_traced(cfg, compiled=True)
    if c_kernel_available():
        assert type(run["workload"].engine) is not CycleEngine
    assert_identical(ref, run, f"cfg={cfg}")
    assert_above_zero_load(ref, cfg)
    return ref, run


@st.composite
def equivalence_configs(draw):
    routing = draw(st.sampled_from(["deterministic", "adaptive"]))
    return SimulationConfig(
        k=draw(st.integers(2, 5)),
        n=draw(st.integers(1, 2)),
        routing=routing,
        num_vcs=draw(st.integers(3 if routing == "adaptive" else 2, 5)),
        buffer_depth=draw(st.integers(1, 4)),
        message_length=draw(st.integers(1, 10)),
        rate=draw(st.floats(2e-4, 8e-3, allow_nan=False)),
        hotspot_fraction=draw(st.sampled_from([0.0, 0.2, 0.6])),
        model_ejection=draw(st.booleans()),
        warmup_cycles=draw(st.sampled_from([0, 250])),
        measure_cycles=draw(st.integers(800, 2_000)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestEquivalenceProperty:
    @given(cfg=equivalence_configs())
    @settings(max_examples=20, deadline=None)
    def test_soa_matches_reference(self, cfg):
        assert_compiled_matches_reference(cfg)


PINNED_CASES = [
    # (k, n, routing, vcs, depth, lm, h, ejection, rate)
    (4, 2, "deterministic", 2, 4, 8, 0.0, False, 2e-3),
    (4, 2, "deterministic", 2, 1, 8, 0.3, False, 3e-3),
    (3, 3, "deterministic", 3, 2, 5, 0.5, True, 2e-3),
    (5, 2, "deterministic", 4, 3, 1, 0.2, False, 1e-3),
    (4, 2, "adaptive", 3, 2, 8, 0.3, False, 3e-3),
    (4, 2, "adaptive", 4, 3, 6, 0.0, True, 2e-3),
    (6, 2, "adaptive", 3, 1, 10, 0.6, False, 2e-3),
    (2, 4, "deterministic", 2, 2, 4, 0.1, False, 4e-3),
]


class TestEquivalencePinned:
    @pytest.mark.parametrize(
        "k,n,routing,vcs,depth,lm,h,ejection,rate", PINNED_CASES
    )
    def test_pinned_case(self, k, n, routing, vcs, depth, lm, h, ejection, rate):
        cfg = SimulationConfig(
            k=k,
            n=n,
            routing=routing,
            num_vcs=vcs,
            buffer_depth=depth,
            message_length=lm,
            rate=rate,
            hotspot_fraction=h,
            model_ejection=ejection,
            warmup_cycles=200,
            measure_cycles=3_000,
            seed=k * 100 + vcs,
        )
        assert_compiled_matches_reference(cfg)

    def test_bidirectional_case(self):
        cfg = SimulationConfig(
            k=4,
            n=2,
            bidirectional=True,
            num_vcs=5,
            message_length=12,
            rate=2e-3,
            warmup_cycles=0,
            measure_cycles=3_000,
            seed=23,
        )
        assert_compiled_matches_reference(cfg)


class TestSpanPinned:
    """Span-kernel exits and shapes the property sweep may not reach."""

    BASE = SimulationConfig(
        k=4, message_length=8, rate=2e-3, hotspot_fraction=0.2,
        warmup_cycles=200, measure_cycles=3_000, seed=41,
    )

    def test_backlog_exit(self):
        cfg = replace(self.BASE, rate=0.05, hotspot_fraction=0.5)
        ref, _ = assert_compiled_matches_reference(cfg)
        w = ref["workload"]
        assert w.backlog_saturated()
        assert w.engine.counters.cycles_run < cfg.total_cycles

    def test_target_completions_exit(self):
        cfg = replace(self.BASE, rate=4e-3, target_completions=60)
        ref, _ = assert_compiled_matches_reference(cfg)
        assert 60 <= ref["count"] < 70
        assert ref["counters"][3] < cfg.total_cycles

    def test_warmup_edge_on_idle_network(self):
        # The network empties on exactly the cycle that reaches the
        # warmup edge; every engine must take the snapshot there.
        cfg = SimulationConfig(
            k=4, message_length=4, rate=2e-3, hotspot_fraction=0.2,
            warmup_cycles=1_000, measure_cycles=2_000, seed=15,
        )
        for run in assert_compiled_matches_reference(cfg):
            w = run["workload"]
            assert w._cycles_at_warmup == cfg.warmup_cycles
            assert w.measured_channel_utilization().max() > 0

    def test_single_flit_depth_one_five_vcs(self):
        cfg = replace(
            self.BASE, message_length=1, buffer_depth=1, num_vcs=5, rate=2e-2,
        )
        assert_compiled_matches_reference(cfg)

    def test_ejection_and_bidirectional(self):
        cfg = replace(
            self.BASE, bidirectional=True, model_ejection=True, num_vcs=3,
            buffer_depth=2, rate=6e-3, hotspot_fraction=0.4,
        )
        assert_compiled_matches_reference(cfg)

    def test_in_flight_outgrows_record_table(self):
        cfg = replace(
            self.BASE, rate=0.05, hotspot_fraction=0.6,
            saturation_backlog_factor=16.0,
        )
        ref, run = assert_compiled_matches_reference(cfg)
        assert ref["workload"].engine.counters.backlog > span._INITIAL_RECORDS
        if c_kernel_available():
            engine = run["workload"].engine
            assert isinstance(engine, SpanEngine)
            assert engine._capacity > span._INITIAL_RECORDS

    def test_idle_network_jumps_to_the_next_arrival(self):
        # 1e-4 on 16 nodes: the network is empty almost always, and the
        # span kernel jumps from arrival to arrival instead of stepping.
        cfg = replace(self.BASE, rate=1e-4, measure_cycles=100_000)
        _, run = assert_compiled_matches_reference(cfg)
        engine = run["workload"].engine
        if c_kernel_available():
            assert isinstance(engine, SpanEngine)
            assert engine.cycles_stepped * 20 < engine.counters.cycles_run

    def test_many_windows(self):
        # A window spans about backlog_limit / (N * rate) cycles: 80
        # here, so the run crosses about 40 windows, the warmup edge
        # inside one of them.
        cfg = replace(self.BASE, rate=1e-2, saturation_backlog_factor=0.8,
                      hotspot_fraction=0.1)
        ref, run = assert_compiled_matches_reference(cfg)
        assert ref["workload"]._window_cycles == 80
        assert not ref["workload"].backlog_saturated()

    def test_many_windows_with_ejection_and_backlog_exit(self):
        # Some fifty 31-cycle windows with ejection channels, and a
        # backlog exit in the middle of a window.
        cfg = replace(self.BASE, k=3, n=1, model_ejection=True, rate=0.13,
                      message_length=2, measure_cycles=6_000,
                      saturation_backlog_factor=4.0)
        for run in assert_compiled_matches_reference(cfg):
            w = run["workload"]
            generated = run["counters"][0]
            assert w._win_end > 40 * w._window_cycles
            assert w.backlog_saturated()
            assert generated < w._win_first_id + len(w._win_cycle)


@requires_kernel
class TestSpanEngineDirect:
    """The span engine driven through its bulk interface: input checks,
    and hand-built scenarios for orderings random workloads rarely hit,
    replayed on the reference engine."""

    def _engine(self, num_sources=2):
        return SpanEngine(
            num_channels=4, num_vcs=2, buffer_depth=2, num_sources=num_sources
        )

    def _routed(self, engine, channels, classes=None):
        """``engine`` with the one route ``channels`` registered."""
        engine.add_routes(channels, classes or [0] * len(channels),
                          [0, len(channels)])
        return engine

    def _replay_span(self, engine, specs):
        """Schedule ``specs`` at cycle 0 and step until all are delivered."""
        log = []
        engine.on_deliveries = lambda tags, routes, gen, cycles: log.extend(
            zip(tags.tolist(), cycles.tolist())
        )
        routes = []
        for src, channels, classes, length in specs:
            routes.extend(engine.add_routes(channels, classes,
                                            [0, len(channels)]).tolist())
        engine.schedule(
            [0] * len(specs), [spec[0] for spec in specs], routes,
            [spec[3] for spec in specs], range(len(specs)),
        )
        while len(log) < len(specs):
            engine.step()
            assert engine.cycle < 10_000
        return log

    def _replay_reference(self, engine, specs):
        from repro.simulator.flit import Message

        log = []
        engine.on_delivery = lambda msg, cycle: log.append((msg.msg_id, cycle))
        for i, (src, channels, classes, length) in enumerate(specs):
            engine.schedule_message(0.0, Message(
                msg_id=i, src=src, dest=100 + i, length=length,
                generated_at=0, route_channels=channels,
                route_classes=classes, is_hot=False,
            ))
        while len(log) < len(specs):
            engine.step()
            assert engine.cycle < 10_000
        return log

    def _assert_matches_reference(self, specs, num_sources):
        got = self._replay_span(self._engine(num_sources), specs)
        ref = self._replay_reference(
            CycleEngine(num_channels=4, num_vcs=2, buffer_depth=2), specs
        )
        assert got == ref

    def test_source_out_of_range_rejected(self):
        engine = self._routed(self._engine(), [0])
        with pytest.raises(ValueError, match="source"):
            engine.schedule([0], [2], [0], 2, [0])

    def test_route_off_the_network_rejected(self):
        with pytest.raises(ValueError, match="leaves the network"):
            self._routed(self._engine(), [0, 4])

    def test_arrival_not_due_rejected(self):
        engine = self._routed(self._engine(), [0])
        engine.step()
        with pytest.raises(ValueError, match="not due"):
            engine.schedule([0], [0], [0], 2, [0])
        with pytest.raises(ValueError, match="not due"):
            engine.schedule([3, 2], [0, 0], [0, 0], 2, [0, 1])

    def test_arrivals_admitted_at_their_own_cycles(self):
        # One call runs a window of arrivals: each is admitted at its
        # cycle, the empty network jumps from arrival to arrival, and
        # the call still ends at the stop.
        specs = [(0, [0, 1], [0, 0], 3), (1, [2], [0], 2), (0, [0], [0], 4)]
        cycles = [5, 40, 41]
        engine = self._engine()
        log = []
        engine.on_deliveries = lambda tags, routes, gen, cyc: log.extend(
            zip(tags.tolist(), gen.tolist(), cyc.tolist())
        )
        routes = [
            int(engine.add_routes(ch, cl, [0, len(ch)])[0])
            for _, ch, cl, _ in specs
        ]
        engine.schedule(cycles, [s[0] for s in specs], routes,
                        [s[3] for s in specs], [7, 8, 9])
        engine.advance(1_000)
        assert engine.cycle == 1_000
        assert engine.counters.cycles_run == 1_000
        assert engine.cycles_stepped < 30
        ref = CycleEngine(num_channels=4, num_vcs=2, buffer_depth=2)
        expected = []
        ref.on_delivery = lambda msg, cycle: expected.append(
            (msg.msg_id, msg.generated_at, cycle)
        )
        from repro.simulator.flit import Message

        for tag, cycle, (src, ch, cl, length) in zip([7, 8, 9], cycles, specs):
            ref.schedule_message(float(cycle), Message(
                msg_id=tag, src=src, dest=9, length=length,
                generated_at=cycle, route_channels=ch, route_classes=cl,
                is_hot=False,
            ))
        while len(expected) < 3:
            ref.step()
        assert log == expected

    def test_mid_pass_request_joins_the_pass(self):
        # Source 0's head waits on channel 0 behind a message of source
        # 1; channel 1 has a class-1 request blocked since cycle 0.  When
        # channel 0 frees, the injection grant makes source 0's next head
        # request channel 1 (class 0) mid-pass: channel 1 joins the pass
        # and grants it in the same cycle.
        self._assert_matches_reference(
            [
                (1, [0], [0], 6),
                (0, [0], [0], 3),
                (0, [1], [0], 3),
                (2, [1], [1], 40),
                (3, [1], [1], 3),
            ],
            num_sources=4,
        )

    def test_request_added_during_its_channel_visit(self):
        # A one-flit message leaves channel 0's round-robin cursor on
        # VC 1.  Source 0's class-0 injection grant then makes its next
        # head request the same channel in class 1, which the same visit
        # still serves, so that head moves first.
        self._assert_matches_reference(
            [(1, [0], [0], 1), (0, [0], [0], 3), (0, [0], [1], 3)],
            num_sources=2,
        )

    def test_burst_outgrows_records_while_admitting(self):
        # 200 arrivals in one cycle: the record table grows while they
        # are written, and the deliveries match the reference engine fed
        # the same messages.
        specs = [(i % 2, [i % 2, 2 + i % 2], [0, 0], 2) for i in range(200)]
        engine = self._engine()
        got = self._replay_span(engine, specs)
        assert engine._capacity > span._INITIAL_RECORDS
        ref = CycleEngine(num_channels=4, num_vcs=2, buffer_depth=2)
        assert got == self._replay_reference(ref, specs)
        assert engine.counters.flit_moves == ref.counters.flit_moves


class TestEngineSelection:
    """The routing mode and whether the C kernel loads pick the engine."""

    BASE = SimulationConfig(
        k=4, message_length=4, rate=1e-3, warmup_cycles=0,
        measure_cycles=500, seed=1,
    )
    ADAPTIVE = replace(BASE, routing="adaptive", num_vcs=3)

    @requires_kernel
    def test_deterministic_routing_gets_span_engine(self):
        assert type(TorusWorkload(self.BASE).engine) is SpanEngine

    @requires_kernel
    def test_adaptive_routing_gets_soa_engine(self):
        assert type(TorusWorkload(self.ADAPTIVE).engine) is SoACycleEngine

    def test_hidden_kernel_gets_reference_engine(self):
        with kernel_hidden():
            assert type(TorusWorkload(self.BASE).engine) is CycleEngine
            assert type(TorusWorkload(self.ADAPTIVE).engine) is CycleEngine

    def test_config_has_one_store_key(self):
        # The engine is not part of the configuration, so a point has
        # one key whichever engine computes it.
        names = {f.name for f in dataclasses.fields(SimulationConfig)}
        assert "engine" not in names
        with pytest.raises(TypeError, match="engine"):
            SimulationConfig(k=4, engine="soa")
        key = config_key(SimulationConfig(k=4))
        assert key == config_key(SimulationConfig(k=4, routing="deterministic"))
        assert key != config_key(SimulationConfig(k=4, seed=1))

    def test_simulation_result_identical_across_engines(self):
        compiled = Simulation(self.BASE).run()
        with kernel_hidden():
            ref = Simulation(self.BASE).run()
        assert ref.mean_latency == compiled.mean_latency
        assert ref.num_completed == compiled.num_completed
        assert ref.cycles_run == compiled.cycles_run
        assert ref.max_channel_utilization == compiled.max_channel_utilization


class TestSoAInternals:
    """The per-cycle SoA engine keeps the reference engine's public
    invariants."""

    @requires_kernel
    def test_pools_drain_clean(self):
        cfg = SimulationConfig(
            k=4, routing="adaptive", num_vcs=3, message_length=6, rate=2e-3,
            hotspot_fraction=0.3, warmup_cycles=0, measure_cycles=3_000,
            seed=9,
        )
        w = TorusWorkload(cfg)
        assert type(w.engine) is SoACycleEngine
        w.run()
        w.stop_arrivals()
        guard = 0
        while w.engine.backlog_ids():
            w.engine.step()
            guard += 1
            assert guard < 100_000
        assert not w.engine.held_vcs()
        for ch in range(w.engine.num_channels):
            assert sorted(w.engine.free_vcs(ch)) == list(range(cfg.num_vcs))
        assert not np.any(w.engine._busy_cnt)
        assert not np.any(w.engine._avail[: w.engine._n_slots])

    def test_conservation(self):
        cfg = SimulationConfig(
            k=4, message_length=8, rate=2e-3, warmup_cycles=0,
            measure_cycles=4_000, seed=2,
        )
        w = TorusWorkload(cfg)
        w.run()
        c = w.engine.counters
        assert c.generated == c.completed + c.backlog
        assert c.flit_moves == int(w.engine.channel_flit_counts.sum())
