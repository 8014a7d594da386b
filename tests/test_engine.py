"""Unit tests for the cycle engine (repro.simulator.engine).

These drive :class:`CycleEngine` with hand-built messages over a tiny
channel space so every timing property is checked against first
principles: per-hop header latency, pipelined streaming, physical-channel
bandwidth sharing, buffer backpressure and wormhole VC holding.
"""

import pytest

from repro.simulator.engine import CycleEngine
from repro.simulator.flit import Message


def make_engine(num_channels=8, num_vcs=2, buffer_depth=4, deliveries=None):
    def on_delivery(msg, cycle):
        if deliveries is not None:
            deliveries.append((msg.msg_id, cycle))

    return CycleEngine(
        num_channels=num_channels,
        num_vcs=num_vcs,
        buffer_depth=buffer_depth,
        on_delivery=on_delivery,
    )


def linear_message(msg_id, channels, length, generated_at=0, src=0, dest=99):
    return Message(
        msg_id=msg_id,
        src=src,
        dest=dest,
        length=length,
        generated_at=generated_at,
        route_channels=list(channels),
        route_classes=[0] * len(channels),
        is_hot=False,
    )


def run_until_done(engine, max_cycles=10_000):
    while engine.messages or engine._arrival_heap:
        engine.step()
        if engine.cycle > max_cycles:
            raise AssertionError("engine did not drain")


class TestSingleMessage:
    def test_zero_load_latency(self):
        """A lone message of L flits over m hops completes at the end of
        cycle g + L + m - 2 (header crosses hop i during cycle g+i, the
        tail trails L-1 cycles behind)."""
        deliveries = []
        engine = make_engine(deliveries=deliveries)
        msg = linear_message(0, channels=[0, 1, 2], length=4, generated_at=0)
        engine.schedule_message(0.0, msg)
        run_until_done(engine)
        assert deliveries == [(0, 0 + 4 + 3 - 2)]

    def test_single_hop_single_flit(self):
        deliveries = []
        engine = make_engine(deliveries=deliveries)
        engine.schedule_message(0.0, linear_message(0, [3], length=1))
        run_until_done(engine)
        assert deliveries == [(0, 0)]

    def test_arrival_time_offsets_start(self):
        deliveries = []
        engine = make_engine(deliveries=deliveries)
        engine.schedule_message(10.2, linear_message(0, [0], length=2, generated_at=10))
        run_until_done(engine)
        # starts at cycle 10, completes at 10 + 2 + 1 - 2 = 11.
        assert deliveries == [(0, 11)]

    def test_counters(self):
        engine = make_engine()
        engine.schedule_message(0.0, linear_message(0, [0, 1], length=3))
        run_until_done(engine)
        assert engine.counters.generated == 1
        assert engine.counters.completed == 1
        assert engine.counters.flit_moves == 6  # 3 flits x 2 channels
        assert engine.channel_flit_counts[0] == 3
        assert engine.channel_flit_counts[1] == 3

    def test_vcs_all_released(self):
        engine = make_engine()
        engine.schedule_message(0.0, linear_message(0, [0, 1, 2], length=5))
        run_until_done(engine)
        for pool in engine.pools:
            assert pool.busy_count == 0
            assert all(h == -1 for h in pool.holders)


class TestBandwidthSharing:
    def test_two_messages_share_one_channel(self):
        """Two concurrent messages (enough VCs) over one channel take
        ~2x the solo time — one flit per physical channel per cycle."""
        deliveries = []
        # V=4 gives two class-0 VCs, so both hold VCs concurrently.
        engine = make_engine(num_vcs=4, deliveries=deliveries)
        engine.schedule_message(0.0, linear_message(0, [0], length=8, src=0))
        engine.schedule_message(0.0, linear_message(1, [0], length=8, src=1))
        run_until_done(engine)
        finish = max(c for _, c in deliveries)
        # Solo: 8 flits -> completes cycle 7.  Shared: 16 flits over one
        # channel -> last flit crosses at cycle 15.
        assert finish == 15

    def test_vc_serialisation_with_two_vcs(self):
        """With V=2 (a single class-0 VC) same-class messages serialise:
        the second waits for the first worm to drain."""
        deliveries = []
        engine = make_engine(num_vcs=2, deliveries=deliveries)
        engine.schedule_message(0.0, linear_message(0, [0], length=8, src=0))
        engine.schedule_message(0.0, linear_message(1, [0], length=8, src=1))
        run_until_done(engine)
        by_id = dict(deliveries)
        assert by_id[0] == 7
        assert by_id[1] >= by_id[0] + 8

    def test_round_robin_fairness(self):
        deliveries = []
        engine = make_engine(num_vcs=4, deliveries=deliveries)
        engine.schedule_message(0.0, linear_message(0, [0], length=6, src=0))
        engine.schedule_message(0.0, linear_message(1, [0], length=6, src=1))
        run_until_done(engine)
        cycles = sorted(c for _, c in deliveries)
        # Fair interleaving: completions one cycle apart, not 6.
        assert cycles[1] - cycles[0] == 1

    def test_disjoint_channels_parallel(self):
        deliveries = []
        engine = make_engine(deliveries=deliveries)
        engine.schedule_message(0.0, linear_message(0, [0], length=8, src=0))
        engine.schedule_message(0.0, linear_message(1, [1], length=8, src=1))
        run_until_done(engine)
        assert all(c == 7 for _, c in deliveries)


class TestVirtualChannels:
    def test_vc_exhaustion_blocks_third_message(self):
        """With V=2 (one VC per dateline class) a second class-0 message
        on a channel must wait for the first to drain."""
        deliveries = []
        engine = make_engine(num_vcs=2, deliveries=deliveries)
        engine.schedule_message(0.0, linear_message(0, [0], length=4, src=0))
        engine.schedule_message(0.0, linear_message(1, [0], length=4, src=1))
        run_until_done(engine)
        by_id = dict(deliveries)
        # msg 0 holds the only class-0 VC until its tail crosses (cycle
        # 3); msg 1 is granted afterwards and finishes 4+ cycles later.
        assert by_id[1] >= by_id[0] + 4

    def test_four_vcs_allow_two_concurrent_class0(self):
        deliveries = []
        engine = make_engine(num_vcs=4, deliveries=deliveries)
        engine.schedule_message(0.0, linear_message(0, [0], length=4, src=0))
        engine.schedule_message(0.0, linear_message(1, [0], length=4, src=1))
        run_until_done(engine)
        cycles = sorted(c for _, c in deliveries)
        # Both run concurrently, sharing bandwidth: 8 flits -> ~cycle 7.
        assert cycles == [6, 7]

    def test_dateline_class_respected(self):
        engine = make_engine(num_vcs=2)
        msg = Message(
            msg_id=0,
            src=0,
            dest=1,
            length=2,
            generated_at=0,
            route_channels=[0, 1],
            route_classes=[0, 1],
            is_hot=False,
        )
        engine.schedule_message(0.0, msg)
        # Header crosses hop 0 in cycle 0, the hop-1 VC is granted in
        # cycle 1 and must be the class-1 VC (index 1 for V=2).
        engine.step()
        engine.step()
        assert msg.vcs[1] == 1


class TestBackpressure:
    def test_small_buffer_throttles_streaming(self):
        """buffer_depth=1 with next-cycle credits halves throughput."""
        fast, slow = [], []
        e_fast = make_engine(buffer_depth=4, deliveries=fast)
        e_slow = make_engine(buffer_depth=1, deliveries=slow)
        for e in (e_fast, e_slow):
            e.schedule_message(0.0, linear_message(0, [0, 1], length=8))
            run_until_done(e)
        assert fast[0][1] == 0 + 8 + 2 - 2
        # depth 1: downstream hop drains a flit only every other cycle.
        assert slow[0][1] > fast[0][1] + 4

    def test_blocked_header_stalls_upstream(self):
        """A message whose path is blocked by VC exhaustion holds its
        upstream VCs (wormhole), delaying a third message behind it."""
        deliveries = []
        engine = make_engine(num_vcs=2, buffer_depth=2, deliveries=deliveries)
        # msg0 occupies channel 1 (class 0) for a long time.
        engine.schedule_message(0.0, linear_message(0, [1], length=30, src=5))
        # msg1 goes 0 -> 1; its header will wait for channel 1's class-0
        # VC while holding channel 0's.
        engine.schedule_message(1.0, linear_message(1, [0, 1], length=4, src=0))
        # msg2 also needs channel 0 (class 0) and must outwait msg1.
        engine.schedule_message(2.0, linear_message(2, [0], length=4, src=6))
        run_until_done(engine)
        by_id = dict(deliveries)
        assert by_id[0] == 29
        assert by_id[1] > by_id[0]  # unblocked only once msg0 drains
        assert by_id[2] > by_id[1]


class TestEngineSafety:
    def test_past_arrival_rejected(self):
        engine = make_engine()
        engine.step()
        with pytest.raises(ValueError):
            engine.schedule_message(0.0, linear_message(0, [0], 1))

    def test_idle_fast_forward(self):
        # The run loop advances an idle engine to the next arrival
        # cycle; the skipped cycles count as run.
        engine = make_engine()
        engine.advance(1000)
        assert engine.cycle == 1000
        assert engine.counters.cycles_run == 1000
        engine.schedule_message(1000.5, linear_message(0, [0], length=1))

    def test_fast_forward_noop_with_messages(self):
        # A message in flight: advance steps one cycle and stops there.
        engine = make_engine()
        engine.schedule_message(0.0, linear_message(0, [0], length=3))
        engine.advance(500)
        assert engine.cycle == 1
        assert engine.messages

    def test_message_requires_route(self):
        with pytest.raises(ValueError):
            linear_message(0, [], length=2)

    def test_route_class_length_mismatch(self):
        with pytest.raises(ValueError):
            Message(0, 0, 1, 2, 0, [0, 1], [0], False)
