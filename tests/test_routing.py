"""Unit tests for repro.topology.routing (dimension-order + dateline)."""

import graphlib
import itertools

import pytest

from repro.topology import DimensionOrderRouter, KAryNCube


@pytest.fixture
def net():
    return KAryNCube(k=4, n=2)


@pytest.fixture
def router(net):
    return DimensionOrderRouter(net)


class TestRouteCorrectness:
    def test_route_reaches_destination(self, net, router):
        for src in net.nodes():
            for dst in net.nodes():
                if src == dst:
                    continue
                route = router.route(src, dst)
                cur = src
                for hop in route.hops:
                    assert hop.channel.src == cur
                    cur = net.channel_dst(hop.channel)
                assert cur == dst

    def test_route_length_equals_hop_count(self, net, router):
        for src, dst in itertools.product(net.nodes(), repeat=2):
            if src == dst:
                continue
            assert router.route(src, dst).num_hops == router.hop_count(src, dst)

    def test_empty_route_to_self(self, router):
        assert router.route((1, 1), (1, 1)).num_hops == 0

    def test_dimension_order_x_before_y(self, router):
        route = router.route((0, 0), (2, 3))
        dims = [hop.channel.dim for hop in route.hops]
        assert dims == sorted(dims), "dimensions must be crossed in order"
        assert dims == [0, 0, 1, 1, 1]

    def test_next_dim(self, router):
        assert router.next_dim((0, 0), (2, 3)) == 0
        assert router.next_dim((2, 0), (2, 3)) == 1
        assert router.next_dim((2, 3), (2, 3)) is None

    def test_unidirectional_wraps(self, net, router):
        route = router.route((3, 0), (1, 0))
        assert route.num_hops == 2  # 3 -> 0 -> 1 via the wrap-around
        assert [h.channel.src for h in route.hops] == [(3, 0), (0, 0)]


class TestDatelineClasses:
    def test_no_wrap_stays_class0(self, router):
        route = router.route((0, 0), (2, 0))
        assert [h.vc_class for h in route.hops] == [0, 0]

    def test_wrap_switches_to_class1(self, router):
        # 2 -> 3 -> 0 -> 1 in a k=4 ring: the wrap hop (from 3) and the
        # hop after it use class 1.
        route = router.route((2, 0), (1, 0))
        assert [h.vc_class for h in route.hops] == [0, 1, 1]

    def test_class_resets_per_dimension(self, router):
        # Wrap in x, then plain hops in y must start again at class 0.
        route = router.route((3, 0), (0, 2))
        classes_by_dim = {}
        for hop in route.hops:
            classes_by_dim.setdefault(hop.channel.dim, []).append(hop.vc_class)
        assert classes_by_dim[0] == [1]
        assert classes_by_dim[1] == [0, 0]

    def test_classes_monotone_within_dimension(self, router):
        net = KAryNCube(k=6, n=2)
        r = DimensionOrderRouter(net)
        for src, dst in itertools.product(net.nodes(), repeat=2):
            if src == dst:
                continue
            route = r.route(src, dst)
            for dim in range(net.n):
                classes = [
                    h.vc_class for h in route.hops if h.channel.dim == dim
                ]
                assert classes == sorted(classes)

    def test_acyclic_channel_class_dependencies(self):
        """The (channel, class) dependency graph must be acyclic — the
        Dally–Seitz condition for deadlock freedom."""
        net = KAryNCube(k=4, n=2)
        router = DimensionOrderRouter(net)
        # Each (channel, class) maps to its predecessors: the pairs a
        # message holds while it requests it.
        g = {}
        for src, dst in itertools.product(net.nodes(), repeat=2):
            if src == dst:
                continue
            hops = router.route(src, dst).hops
            for a, b in zip(hops, hops[1:]):
                g.setdefault((b.channel, b.vc_class), set()).add(
                    (a.channel, a.vc_class)
                )
        assert g
        graphlib.TopologicalSorter(g).prepare()  # raises CycleError


class TestBidirectional:
    def test_minimal_direction_chosen(self):
        net = KAryNCube(k=8, n=1, bidirectional=True)
        router = DimensionOrderRouter(net)
        fwd = router.route((1,), (3,))
        assert all(h.channel.direction == +1 for h in fwd.hops)
        bwd = router.route((1,), (7,))
        assert all(h.channel.direction == -1 for h in bwd.hops)
        assert bwd.num_hops == 2

    def test_hop_count_bidirectional(self):
        net = KAryNCube(k=8, n=2, bidirectional=True)
        router = DimensionOrderRouter(net)
        assert router.hop_count((0, 0), (7, 5)) == 1 + 3

    def test_negative_dateline(self):
        net = KAryNCube(k=5, n=1, bidirectional=True)
        router = DimensionOrderRouter(net)
        # 1 -> 0 -> 4 (strictly minimal backwards) crosses the dateline
        # on the 0 -> 4 wrap hop.
        route = router.route((1,), (4,))
        assert [h.channel.src for h in route.hops] == [(1,), (0,)]
        assert [h.vc_class for h in route.hops] == [0, 1]


class TestRouteObject:
    def test_channels_accessor(self, router):
        route = router.route((0, 0), (2, 1))
        assert len(route.channels()) == 3
        assert route.src == (0, 0) and route.dst == (2, 1)

    def test_route_validates_nodes(self, router):
        with pytest.raises(ValueError):
            router.route((0, 4), (1, 1))
