"""Shortest-path cross-checks of the k-ary n-cube closed forms.

A breadth-first search over the channels of
:class:`~repro.topology.KAryNCube` is the oracle for the diameter, mean
message distance and bisection width the analytical model relies on.
"""

from collections import deque

import pytest

from repro.topology import KAryNCube


def hop_distances(net):
    """Shortest-path hop counts over all ordered pairs of distinct nodes."""
    succ = {node: [] for node in net.nodes()}
    for ch in net.channels():
        succ[ch.src].append(net.channel_dst(ch))
    distances = []
    for src in succ:
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in succ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        assert len(dist) == net.num_nodes  # strongly connected
        distances.extend(d for d in dist.values() if d)
    return distances


def bisection_crossings(net):
    """Directed channels crossing the cut ``v_0 < k/2`` | ``v_0 >= k/2``."""
    half = net.k // 2
    return sum(
        (ch.src[0] < half) != (net.channel_dst(ch)[0] < half)
        for ch in net.channels()
    )


class TestMetrics:
    def test_diameter_matches_formula(self):
        for k, n in ((4, 2), (3, 3)):
            net = KAryNCube(k=k, n=n)
            assert max(hop_distances(net)) == net.diameter

    def test_diameter_bidirectional(self):
        net = KAryNCube(k=6, n=2, bidirectional=True)
        assert max(hop_distances(net)) == net.diameter == 6

    def test_average_distance_close_to_formula(self):
        # Exact mean over ordered pairs = n*(k-1)/2 * N/(N-1): the
        # closed form n*(k-1)/2 averages displacement over all N
        # destinations including self.
        net = KAryNCube(k=4, n=2)
        distances = hop_distances(net)
        n_nodes = net.num_nodes
        assert len(distances) == n_nodes * (n_nodes - 1)
        assert sum(distances) / len(distances) == pytest.approx(
            net.mean_message_hops * n_nodes / (n_nodes - 1)
        )

    def test_bisection_count_unidirectional(self):
        net = KAryNCube(k=4, n=2)
        # k rings of dimension 0, each crossing the cut twice (cut +
        # wrap-around), one direction only.
        assert bisection_crossings(net) == 2 * 4

    def test_bisection_count_bidirectional(self):
        net = KAryNCube(k=4, n=2, bidirectional=True)
        assert bisection_crossings(net) == 4 * 4
