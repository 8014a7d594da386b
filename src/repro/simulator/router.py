"""Route tables: rank-level dimension-order routes with dateline classes.

The engine addresses channels by dense integer ids.  Unidirectional
networks (the paper's analysis) use ``channel_id = node_rank * n + dim``;
bidirectional networks (the paper: the analysis "can be easily extended
to deal with bi-directional case") double the id space with a direction
bit.

Routes are computed in bulk: :meth:`RouteTable.routes` takes arrays of
(source, destination) rank pairs and returns every hop of every route
as flat ``numpy`` arrays, one vectorised pass however many pairs there
are.  The workload calls it once per arrival window for the pairs it
has not routed yet; :meth:`RouteTable.route` answers a single pair from
the same method and memoises the answer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.topology.kary_ncube import KAryNCube

__all__ = ["RouteTable"]


class RouteTable:
    """Dimension-order routes between node ranks.

    A route is a pair ``(channels, classes)`` of equal-length sequences:
    engine channel ids in traversal order, and the dateline deadlock
    class (0/1) used on each.
    """

    def __init__(self, network: KAryNCube) -> None:
        self.network = network
        self._dirs = 2 if network.bidirectional else 1
        # Rank weight of each coordinate (the first is most significant).
        self._place = network.k ** np.arange(network.n - 1, -1, -1, dtype=np.int64)
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

    def routes(
        self, src, dst, ejection: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Routes of many (source, destination) rank pairs at once.

        Returns ``(channels, classes, offsets)``: the hops of pair ``i``
        are ``channels[offsets[i]:offsets[i + 1]]`` with their dateline
        classes at the same positions.  Each dimension is corrected in
        turn, in the shorter direction on a bidirectional network
        (forward on a tie); the hop out of coordinate ``k - 1`` (forward)
        or ``0`` (backward) and every later hop in that ring use class 1.
        With ``ejection`` every route ends with one more hop, class 0,
        on the destination's ejection channel, whose id is
        :attr:`num_channels` plus the destination rank.  Raises for a
        pair with ``src == dst`` or a rank outside the network.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("src and dst must be 1-D arrays of equal length")
        net = self.network
        k, n, dirs = net.k, net.n, self._dirs
        if src.size and (
            min(src.min(), dst.min()) < 0
            or max(src.max(), dst.max()) >= net.num_nodes
        ):
            raise ValueError(f"rank out of range [0, {net.num_nodes})")
        if np.any(src == dst):
            raise ValueError("no route from a node to itself")
        place = self._place
        s_coord = src[:, None] // place % k
        d_coord = dst[:, None] // place % k
        fwd = (d_coord - s_coord) % k
        back = (k - fwd < fwd) if net.bidirectional else np.zeros_like(fwd, bool)
        hops = np.where(back, k - fwd, fwd)
        # Rank of the ring each dimension is corrected in, less that
        # dimension's own digit: earlier dimensions already hold the
        # destination's coordinates, later ones still the source's.
        d_part = d_coord * place
        s_part = s_coord * place
        base = (np.cumsum(d_part, axis=1) - d_part) + (
            np.cumsum(s_part[:, ::-1], axis=1)[:, ::-1] - s_part
        )
        seg = hops.ravel()
        j = np.arange(int(seg.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(seg) - seg, seg
        )
        dim = np.repeat(np.tile(np.arange(n, dtype=np.int64), len(src)), seg)
        bit = np.repeat(back.ravel(), seg)
        # Unwrapped coordinate of the router each hop leaves.
        u = np.repeat(s_coord.ravel(), seg) + np.where(bit, -j, j)
        rank = np.repeat(base.ravel(), seg) + u % k * place[dim]
        channels = (rank * n + dim) * dirs + bit
        classes = np.where(bit, u <= 0, u >= k - 1).astype(np.int64)
        counts = hops.sum(axis=1)
        if ejection:
            ends = np.cumsum(counts)
            channels = np.insert(channels, ends, self.num_channels + dst)
            classes = np.insert(classes, ends, 0)
            counts = counts + 1
        offsets = np.zeros(len(src) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return channels, classes, offsets

    def route(self, src_rank: int, dest_rank: int) -> Tuple[List[int], List[int]]:
        """Route between two ranks, memoised; raises for ``src == dest``."""
        key = (src_rank, dest_rank)
        cached = self._cache.get(key)
        if cached is None:
            channels, classes, _ = self.routes([src_rank], [dest_rank])
            cached = self._cache[key] = (channels.tolist(), classes.tolist())
        return cached
