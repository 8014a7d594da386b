"""Destination distributions (traffic patterns).

The paper's traffic model (assumption ii, after Pfister & Norton [20]):
"each generated message has a finite probability ``h`` of being directed
to the hot-spot node, and probability ``1-h`` of being uniformly directed
to the other network nodes".  :class:`HotSpotPattern` implements exactly
that; :class:`UniformPattern` is the ``h = 0`` degenerate case that the
pre-existing uniform-traffic models assume.

For the extended examples we also provide the classic permutation
patterns (matrix transpose, bit reversal) and an arbitrary
traffic-matrix pattern; they exercise the same simulator code paths with
non-uniform but hot-spot-free traffic.

Patterns are deterministic functions of an externally supplied
:class:`numpy.random.Generator`, so simulations are reproducible from a
seed.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.topology.kary_ncube import KAryNCube, Node

__all__ = [
    "DestinationPattern",
    "UniformPattern",
    "HotSpotPattern",
    "TransposePattern",
    "BitReversalPattern",
    "MatrixPattern",
]


class DestinationPattern(abc.ABC):
    """Chooses a destination rank for each message generated at a source.

    Subclasses must never return the source itself: the paper's traffic
    model draws destinations among *other* nodes (and the hot-spot node
    does not send hot-spot messages to itself).

    A pattern draws a whole batch of messages in one
    :meth:`draw_many` call, and every message takes a fixed number of
    uniform doubles from the generator, in message order, so a batch
    draws exactly what one :meth:`draw` per message would.
    """

    def __init__(self, network: KAryNCube) -> None:
        self.network = network

    @abc.abstractmethod
    def draw_many(self, sources: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Destination ranks (int64) for messages generated at
        ``sources``, one per entry, in order."""

    def draw(self, source_rank: int, rng: np.random.Generator) -> int:
        """Destination rank for one message generated at ``source_rank``."""
        return int(self.draw_many(np.array([source_rank]), rng)[0])

    def destination_probabilities(self, source_rank: int) -> np.ndarray:
        """Vector ``p[d]`` of destination probabilities for this source.

        Default implementation estimates nothing — subclasses override
        with their closed form.  Used by tests to validate
        :meth:`draw_many` against the intended distribution.
        """
        raise NotImplementedError

    def flows(self) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """The pattern as ``(u, src, dst, p)``: every source sends a
        share ``u`` of its messages uniformly over the other ``N-1``
        nodes, and source ``src[i]`` also sends a share ``p[i]`` to
        ``dst[i]``.  The simulator spreads these shares over the routes
        to find each channel's offered load.  The default reads every
        source's :meth:`destination_probabilities` (``u = 0``);
        patterns with a uniform part override it, so that part needs no
        per-pair entries.
        """
        src, dst, p = [], [], []
        for s in range(self.network.num_nodes):
            row = self.destination_probabilities(s)
            d = np.flatnonzero(row)
            src.append(np.full(len(d), s, dtype=np.int64))
            dst.append(d)
            p.append(row[d])
        return 0.0, np.concatenate(src), np.concatenate(dst), np.concatenate(p)

    def _uniform_other(self, sources: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Uniform destinations over the ``N-1`` nodes other than each
        source, from uniform doubles ``u`` in [0, 1)."""
        d = (u * (self.network.num_nodes - 1)).astype(np.int64)
        return d + (d >= sources)


class UniformPattern(DestinationPattern):
    """Uniform traffic over the other ``N-1`` nodes (the h=0 case).

    One uniform double per message.
    """

    def draw_many(self, sources: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._uniform_other(sources, rng.random(len(sources)))

    def destination_probabilities(self, source_rank: int) -> np.ndarray:
        n = self.network.num_nodes
        p = np.full(n, 1.0 / (n - 1))
        p[source_rank] = 0.0
        return p

    def flows(self) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        none = np.empty(0, dtype=np.int64)
        return 1.0, none, none, np.empty(0)


class HotSpotPattern(DestinationPattern):
    """Pfister–Norton hot-spot traffic (paper assumption ii).

    With probability ``h`` the destination is the hot-spot node; with
    probability ``1-h`` it is uniform over the other ``N-1`` nodes
    (which *include* the hot-spot node, so the hot node's total share is
    ``h + (1-h)/(N-1)``).  Messages generated *by* the hot-spot node are
    always regular — a node does not send to itself — matching the
    paper's "when the source is the hot-spot node, only regular traffic
    is generated".

    Two uniform doubles per message: the hot-spot coin, then the
    uniform pick (drawn, and unused, when the coin lands hot).

    Parameters
    ----------
    network:
        Topology the pattern lives on.
    hotspot_fraction:
        The hot-spot probability ``h`` in [0, 1].
    hotspot_node:
        Coordinate vector of the hot node (defaults to the origin; by
        symmetry of the torus the choice is irrelevant to statistics).
    """

    def __init__(
        self,
        network: KAryNCube,
        hotspot_fraction: float,
        hotspot_node: Optional[Node] = None,
    ) -> None:
        super().__init__(network)
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError(
                f"hot-spot fraction must be in [0, 1], got {hotspot_fraction}"
            )
        self.h = float(hotspot_fraction)
        if hotspot_node is None:
            hotspot_node = (0,) * network.n
        network._check_node(hotspot_node)
        self.hotspot_node: Node = tuple(hotspot_node)
        self.hotspot_rank = network.rank(self.hotspot_node)

    def draw_many(self, sources: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((len(sources), 2))
        dest = self._uniform_other(sources, u[:, 1])
        dest[(u[:, 0] < self.h) & (sources != self.hotspot_rank)] = self.hotspot_rank
        return dest

    def is_hot_message(self, source_rank: int, dest_rank: int) -> bool:
        """Classifier used by the simulator's statistics: a message is a
        *hot-spot message* when it targets the hot node and was not sent
        by the hot node itself.

        Note the ``(1-h)/(N-1)`` sliver of uniform messages that happen
        to hit the hot node is counted as hot by destination — the same
        aggregation the analytical channel rates use.
        """
        return dest_rank == self.hotspot_rank and source_rank != self.hotspot_rank

    def destination_probabilities(self, source_rank: int) -> np.ndarray:
        n = self.network.num_nodes
        if source_rank == self.hotspot_rank:
            p = np.full(n, 1.0 / (n - 1))
            p[source_rank] = 0.0
            return p
        p = np.full(n, (1.0 - self.h) / (n - 1))
        p[source_rank] = 0.0
        p[self.hotspot_rank] += self.h
        return p

    def flows(self) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        # A share 1-h of every source's messages is uniform; the rest
        # goes to the hot node, except from the hot node itself, whose
        # share h is uniform too.
        n = self.network.num_nodes
        hot = self.hotspot_rank
        others = np.delete(np.arange(n, dtype=np.int64), hot)
        src = np.concatenate((others, np.full(n - 1, hot, dtype=np.int64)))
        dst = np.concatenate((np.full(n - 1, hot, dtype=np.int64), others))
        p = np.concatenate((np.full(n - 1, self.h), np.full(n - 1, self.h / (n - 1))))
        return 1.0 - self.h, src, dst, p


class _PermutationPattern(DestinationPattern):
    """A fixed image rank per source; sources that are their own image
    fall back to uniform traffic, so the no-self-message invariant
    holds.  One uniform double per message (used by fixed points only).
    """

    def __init__(self, network: KAryNCube, image: np.ndarray) -> None:
        super().__init__(network)
        self._image = np.asarray(image, dtype=np.int64)

    def draw_many(self, sources: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(len(sources))
        dest = self._image[sources]
        fixed = dest == sources
        dest[fixed] = self._uniform_other(sources[fixed], u[fixed])
        return dest

    def destination_probabilities(self, source_rank: int) -> np.ndarray:
        n = self.network.num_nodes
        image = int(self._image[source_rank])
        if image == source_rank:
            p = np.full(n, 1.0 / (n - 1))
            p[source_rank] = 0.0
            return p
        p = np.zeros(n)
        p[image] = 1.0
        return p


class TransposePattern(_PermutationPattern):
    """Matrix-transpose permutation: ``(x, y) -> (y, x)`` (2-D only).

    Nodes on the diagonal have themselves as image; they fall back to
    uniform traffic so the no-self-message invariant holds.
    """

    def __init__(self, network: KAryNCube) -> None:
        if network.n != 2:
            raise ValueError("transpose pattern requires a 2-D network")
        image = [
            network.rank(tuple(reversed(network.unrank(r))))
            for r in range(network.num_nodes)
        ]
        super().__init__(network, image)


class BitReversalPattern(_PermutationPattern):
    """Bit-reversal permutation on the rank's binary representation.

    Requires ``N`` to be a power of two.  Fixed points fall back to
    uniform traffic.
    """

    def __init__(self, network: KAryNCube) -> None:
        n = network.num_nodes
        if n & (n - 1):
            raise ValueError("bit reversal requires a power-of-two node count")
        bits = n.bit_length() - 1
        image = [int(format(r, f"0{bits}b")[::-1], 2) for r in range(n)]
        super().__init__(network, image)


class MatrixPattern(DestinationPattern):
    """Arbitrary stochastic traffic matrix ``P[s, d]``.

    ``matrix[s]`` must be a probability vector with ``matrix[s, s] == 0``.
    Useful for composing custom non-uniform workloads in examples.  One
    uniform double per message, inverted through the row's cumulative
    distribution.
    """

    def __init__(self, network: KAryNCube, matrix: Sequence[Sequence[float]]) -> None:
        super().__init__(network)
        m = np.asarray(matrix, dtype=float)
        n = network.num_nodes
        if m.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {m.shape}")
        if np.any(m < 0):
            raise ValueError("matrix entries must be non-negative")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("matrix rows must sum to 1")
        if np.any(np.diag(m) != 0):
            raise ValueError("self-traffic (diagonal entries) must be zero")
        self.matrix = m
        cumulative = np.cumsum(m, axis=1)
        # Each row ends at exactly 1, so a draw below 1 never lands past
        # the row's last non-zero entry.
        self._cumulative = cumulative / cumulative[:, -1:]

    def draw_many(self, sources: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(len(sources))
        return np.count_nonzero(self._cumulative[sources] <= u[:, None], axis=1)

    def destination_probabilities(self, source_rank: int) -> np.ndarray:
        return self.matrix[source_rank].copy()
