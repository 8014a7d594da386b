"""Unit tests for repro.simulator.router (rank-level route tables)."""

import itertools

import numpy as np
import pytest

from repro.simulator.router import RouteTable
from repro.topology import DimensionOrderRouter, KAryNCube


def oracle_route(net, src_rank, dest_rank):
    """Dimension-order route built hop by hop: the reference for the
    vectorised :meth:`RouteTable.routes`."""
    k, n = net.k, net.n
    dirs = 2 if net.bidirectional else 1
    src, dst = net.unrank(src_rank), net.unrank(dest_rank)
    channels, classes = [], []
    cur_rank = src_rank
    for dim in range(n):
        coord = src[dim]
        fwd = (dst[dim] - coord) % k
        if fwd == 0:
            continue
        if net.bidirectional and (k - fwd) < fwd:
            step, hops, bit, wrap = -1, k - fwd, 1, 0
        else:
            step, hops, bit, wrap = +1, fwd, 0, k - 1
        place = k ** (n - 1 - dim)
        cls = 0
        for _ in range(hops):
            # The wrap hop (k-1 -> 0 forwards, 0 -> k-1 backwards) and
            # everything after it in this ring use dateline class 1.
            if coord == wrap:
                cls = 1
            channels.append((cur_rank * n + dim) * dirs + bit)
            classes.append(cls)
            new_coord = (coord + step) % k
            cur_rank += (new_coord - coord) * place
            coord = new_coord
    return channels, classes


@pytest.fixture
def net():
    return KAryNCube(k=4, n=2)


@pytest.fixture
def table(net):
    return RouteTable(net)


class TestChannelIds:
    def test_dense_and_invertible(self, net, table):
        seen = set()
        for rank in range(net.num_nodes):
            for dim in range(net.n):
                cid = table.channel_id(rank, dim)
                assert 0 <= cid < table.num_channels
                assert table.channel_owner(cid) == (rank, dim, +1)
                seen.add(cid)
        assert len(seen) == table.num_channels

    def test_bidirectional_ids_dense(self):
        net = KAryNCube(k=4, n=2, bidirectional=True)
        table = RouteTable(net)
        seen = set()
        for rank in range(net.num_nodes):
            for dim in range(net.n):
                for direction in (+1, -1):
                    cid = table.channel_id(rank, dim, direction)
                    assert table.channel_owner(cid) == (rank, dim, direction)
                    seen.add(cid)
        assert len(seen) == table.num_channels == 16 * 2 * 2

    def test_negative_direction_rejected_unidirectional(self, table):
        with pytest.raises(ValueError):
            table.channel_id(0, 0, -1)

    def test_bidirectional_routes_minimal(self):
        net = KAryNCube(k=8, n=2, bidirectional=True)
        table = RouteTable(net)
        from repro.topology import DimensionOrderRouter

        router = DimensionOrderRouter(net)
        for s in range(0, 64, 7):
            for d in range(0, 64, 5):
                if s == d:
                    continue
                channels, classes = table.route(s, d)
                ref = router.route(net.unrank(s), net.unrank(d))
                assert len(channels) == ref.num_hops
                assert classes == [h.vc_class for h in ref.hops]


class TestRoutes:
    def test_matches_coordinate_router(self, net, table):
        router = DimensionOrderRouter(net)
        for s, d in itertools.product(range(net.num_nodes), repeat=2):
            if s == d:
                continue
            channels, classes = table.route(s, d)
            ref = router.route(net.unrank(s), net.unrank(d))
            ref_channels = [
                table.channel_id(net.rank(h.channel.src), h.channel.dim)
                for h in ref.hops
            ]
            ref_classes = [h.vc_class for h in ref.hops]
            assert channels == ref_channels, (s, d)
            assert classes == ref_classes, (s, d)

    def test_self_route_rejected(self, table):
        with pytest.raises(ValueError):
            table.route(3, 3)

    def test_cache_returns_same_object(self, table):
        a = table.route(0, 5)
        b = table.route(0, 5)
        assert a is b

    def test_three_dimensional(self):
        net = KAryNCube(k=3, n=3)
        table = RouteTable(net)
        router = DimensionOrderRouter(net)
        for s, d in itertools.product(range(27), repeat=2):
            if s == d:
                continue
            channels, classes = table.route(s, d)
            ref = router.route(net.unrank(s), net.unrank(d))
            assert len(channels) == ref.num_hops
            assert classes == [h.vc_class for h in ref.hops]


class TestVectorisedRoutes:
    @pytest.mark.parametrize("bidirectional", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_pair_matches_the_per_hop_oracle(self, n, bidirectional):
        for k in range(2, 8):
            net = KAryNCube(k=k, n=n, bidirectional=bidirectional)
            table = RouteTable(net)
            pairs = [
                (s, d)
                for s, d in itertools.product(range(net.num_nodes), repeat=2)
                if s != d
            ]
            src = np.array([s for s, _ in pairs])
            dst = np.array([d for _, d in pairs])
            ref = [oracle_route(net, s, d) for s, d in pairs]
            ch, cl, off = table.routes(src, dst)
            assert off.tolist() == [0] + list(
                itertools.accumulate(len(c) for c, _ in ref)
            )
            assert ch.tolist() == [c for r, _ in ref for c in r], (k, n)
            assert cl.tolist() == [c for _, r in ref for c in r], (k, n)
            # Ejection appends the destination's ejection channel.
            ch, cl, off = table.routes(src, dst, ejection=True)
            eject = [
                (r + [table.num_channels + d], c + [0])
                for (r, c), (_, d) in zip(ref, pairs)
            ]
            assert off.tolist() == [0] + list(
                itertools.accumulate(len(c) for c, _ in eject)
            )
            assert ch.tolist() == [c for r, _ in eject for c in r], (k, n)
            assert cl.tolist() == [c for _, r in eject for c in r], (k, n)

    def test_route_answers_from_routes(self, table):
        for s, d in [(0, 5), (15, 0), (6, 9)]:
            channels, classes, _ = table.routes([s], [d])
            assert table.route(s, d) == (channels.tolist(), classes.tolist())

    def test_bad_pairs_rejected(self, table):
        with pytest.raises(ValueError, match="itself"):
            table.routes([0, 3], [1, 3])
        with pytest.raises(ValueError, match="out of range"):
            table.routes([0], [16])
        ch, cl, off = table.routes([], [])
        assert ch.size == cl.size == 0 and off.tolist() == [0]
