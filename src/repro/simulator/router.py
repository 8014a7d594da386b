"""Route tables: rank-level dimension-order routes with dateline classes.

The engine addresses channels by dense integer ids.  Unidirectional
networks (the paper's analysis) use ``channel_id = node_rank * n + dim``;
bidirectional networks (the paper: the analysis "can be easily extended
to deal with bi-directional case") double the id space with a direction
bit.  Routes are computed on demand from the topology's coordinates and
memoised: hot-spot workloads reuse the ``N`` routes into the hot node
constantly, and uniform workloads cycle through at most ``N(N-1)``
routes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.topology.kary_ncube import KAryNCube

__all__ = ["RouteTable"]


class RouteTable:
    """Memoised dimension-order routes between node ranks.

    A route is a pair ``(channels, classes)`` of equal-length lists:
    engine channel ids in traversal order, and the dateline deadlock
    class (0/1) used on each.
    """

    def __init__(self, network: KAryNCube) -> None:
        self.network = network
        self._dirs = 2 if network.bidirectional else 1
        self._cache: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = {}

    def channel_id(self, node_rank: int, dim: int, direction: int = +1) -> int:
        """Dense engine id of a node's outgoing channel.

        ``direction`` is +1 or (bidirectional networks only) -1.
        """
        if direction == +1:
            bit = 0
        elif direction == -1:
            if not self.network.bidirectional:
                raise ValueError("negative direction on a unidirectional network")
            bit = 1
        else:
            raise ValueError(f"direction must be +1 or -1, got {direction}")
        return (node_rank * self.network.n + dim) * self._dirs + bit

    def channel_owner(self, channel_id: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`channel_id`: ``(node_rank, dim, direction)``."""
        base, bit = divmod(channel_id, self._dirs)
        rank, dim = divmod(base, self.network.n)
        return rank, dim, (+1 if bit == 0 else -1)

    @property
    def num_channels(self) -> int:
        return self.network.num_nodes * self.network.n * self._dirs

    def route(self, src_rank: int, dest_rank: int) -> Tuple[List[int], List[int]]:
        """Route between ranks; raises for ``src == dest``."""
        if src_rank == dest_rank:
            raise ValueError("no route from a node to itself")
        key = (src_rank, dest_rank)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        net = self.network
        k, n, dirs = net.k, net.n, self._dirs
        src = net.unrank(src_rank)
        dst = net.unrank(dest_rank)
        channels: List[int] = []
        classes: List[int] = []
        cur_rank = src_rank
        for dim in range(n):
            coord = src[dim]
            fwd = (dst[dim] - coord) % k
            if fwd == 0:
                continue
            # Channel ids are channel_id(rank, dim, direction), inlined:
            # this loop runs once per hop of every new route.
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
        result = (channels, classes)
        self._cache[key] = result
        return result
