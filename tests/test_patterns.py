"""Unit tests for repro.traffic.patterns (destination distributions)."""

import numpy as np
import pytest

from repro.topology import KAryNCube
from repro.traffic.patterns import (
    BitReversalPattern,
    HotSpotPattern,
    MatrixPattern,
    TransposePattern,
    UniformPattern,
)


@pytest.fixture
def net():
    return KAryNCube(k=4, n=2)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestUniform:
    def test_never_self(self, net, rng):
        pattern = UniformPattern(net)
        for _ in range(2000):
            assert pattern.draw(5, rng) != 5

    def test_all_destinations_reachable(self, net, rng):
        pattern = UniformPattern(net)
        seen = {pattern.draw(0, rng) for _ in range(4000)}
        assert seen == set(range(1, net.num_nodes))

    def test_empirical_uniformity(self, net, rng):
        pattern = UniformPattern(net)
        counts = np.zeros(net.num_nodes)
        trials = 30_000
        for _ in range(trials):
            counts[pattern.draw(3, rng)] += 1
        expected = trials / (net.num_nodes - 1)
        nonself = np.delete(counts, 3)
        assert counts[3] == 0
        # chi-square-ish bound: each cell within 5 sigma
        sigma = np.sqrt(expected)
        assert np.all(np.abs(nonself - expected) < 5 * sigma)

    def test_probability_vector(self, net):
        p = UniformPattern(net).destination_probabilities(7)
        assert p[7] == 0.0
        assert p.sum() == pytest.approx(1.0)
        assert np.allclose(p[p > 0], 1.0 / (net.num_nodes - 1))


class TestHotSpot:
    def test_fraction_validation(self, net):
        with pytest.raises(ValueError):
            HotSpotPattern(net, 1.5)
        with pytest.raises(ValueError):
            HotSpotPattern(net, -0.1)

    def test_default_hot_node_is_origin(self, net):
        p = HotSpotPattern(net, 0.3)
        assert p.hotspot_node == (0, 0)
        assert p.hotspot_rank == 0

    def test_custom_hot_node(self, net):
        p = HotSpotPattern(net, 0.3, hotspot_node=(2, 3))
        assert p.hotspot_rank == net.rank((2, 3))

    def test_hot_node_validated(self, net):
        with pytest.raises(ValueError):
            HotSpotPattern(net, 0.3, hotspot_node=(4, 0))

    def test_empirical_hot_fraction(self, net, rng):
        h = 0.4
        pattern = HotSpotPattern(net, h)
        trials = 20_000
        hits = sum(pattern.draw(9, rng) == 0 for _ in range(trials))
        # expected share: h + (1-h)/(N-1)
        expected = h + (1 - h) / (net.num_nodes - 1)
        assert hits / trials == pytest.approx(expected, abs=0.02)

    def test_hot_node_sends_only_regular(self, net, rng):
        pattern = HotSpotPattern(net, 0.9)
        draws = [pattern.draw(pattern.hotspot_rank, rng) for _ in range(3000)]
        assert pattern.hotspot_rank not in draws
        # and they must look uniform over the other nodes
        assert len(set(draws)) == net.num_nodes - 1

    def test_probability_vector_sums_to_one(self, net):
        pattern = HotSpotPattern(net, 0.25)
        for src in (0, 5, 15):
            p = pattern.destination_probabilities(src)
            assert p.sum() == pytest.approx(1.0)
            assert p[src] == 0.0

    def test_probability_vector_hot_mass(self, net):
        pattern = HotSpotPattern(net, 0.25)
        p = pattern.destination_probabilities(6)
        n = net.num_nodes
        assert p[0] == pytest.approx(0.25 + 0.75 / (n - 1))

    def test_h_zero_equals_uniform(self, net):
        hot = HotSpotPattern(net, 0.0)
        uni = UniformPattern(net)
        for src in range(net.num_nodes):
            assert np.allclose(
                hot.destination_probabilities(src),
                uni.destination_probabilities(src),
            )

    def test_is_hot_message_classifier(self, net):
        pattern = HotSpotPattern(net, 0.5)
        assert pattern.is_hot_message(3, 0)
        assert not pattern.is_hot_message(0, 3)
        assert not pattern.is_hot_message(3, 4)


class TestPermutations:
    def test_transpose_maps_coordinates(self, net, rng):
        pattern = TransposePattern(net)
        assert pattern.draw(net.rank((1, 3)), rng) == net.rank((3, 1))

    def test_transpose_diagonal_falls_back_to_uniform(self, net, rng):
        pattern = TransposePattern(net)
        src = net.rank((2, 2))
        draws = {pattern.draw(src, rng) for _ in range(500)}
        assert src not in draws
        assert len(draws) > 1

    def test_transpose_requires_2d(self):
        with pytest.raises(ValueError):
            TransposePattern(KAryNCube(k=4, n=3))

    def test_bit_reversal(self, rng):
        net = KAryNCube(k=4, n=2)  # 16 nodes, 4 bits
        pattern = BitReversalPattern(net)
        assert pattern.draw(0b0001, rng) == 0b1000
        assert pattern.draw(0b0110, rng) == 0b0110 or True  # fixed point path
        # fixed points fall back to uniform, never self:
        assert pattern.draw(0b0110, rng) != 0b0110

    def test_bit_reversal_requires_power_of_two(self):
        with pytest.raises(ValueError):
            BitReversalPattern(KAryNCube(k=3, n=2))


class TestMatrix:
    def test_draw_follows_matrix(self, rng):
        net = KAryNCube(k=2, n=1)
        m = [[0.0, 1.0], [1.0, 0.0]]
        pattern = MatrixPattern(net, m)
        assert pattern.draw(0, rng) == 1
        assert pattern.draw(1, rng) == 0

    def test_rows_must_sum_to_one(self):
        net = KAryNCube(k=2, n=1)
        with pytest.raises(ValueError):
            MatrixPattern(net, [[0.0, 0.5], [1.0, 0.0]])

    def test_diagonal_must_be_zero(self):
        net = KAryNCube(k=2, n=1)
        with pytest.raises(ValueError):
            MatrixPattern(net, [[0.5, 0.5], [1.0, 0.0]])

    def test_shape_checked(self):
        net = KAryNCube(k=2, n=1)
        with pytest.raises(ValueError):
            MatrixPattern(net, [[0.0, 1.0]])

    def test_negative_entries_rejected(self):
        net = KAryNCube(k=2, n=1)
        with pytest.raises(ValueError):
            MatrixPattern(net, [[0.0, 1.0], [2.0, -1.0]])

    def test_empirical_distribution(self, rng):
        net = KAryNCube(k=4, n=1)
        m = [
            [0.0, 0.5, 0.25, 0.25],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.2, 0.3, 0.5, 0.0],
        ]
        pattern = MatrixPattern(net, m)
        counts = np.zeros(4)
        for _ in range(10_000):
            counts[pattern.draw(0, rng)] += 1
        assert counts[0] == 0
        assert counts[1] / 10_000 == pytest.approx(0.5, abs=0.03)
        assert counts[2] / 10_000 == pytest.approx(0.25, abs=0.03)


def chi2_critical(df, z=3.719):
    """Upper 1e-4 quantile of chi-square with ``df`` degrees of freedom
    (Wilson–Hilferty; z is the standard normal 1e-4 quantile)."""
    return df * (1 - 2 / (9 * df) + z * np.sqrt(2 / (9 * df))) ** 3


def all_patterns(net):
    matrix = np.full((net.num_nodes, net.num_nodes), 0.0)
    for s in range(net.num_nodes):
        matrix[s, (s + 1) % net.num_nodes] = 0.6
        matrix[s, (s + 5) % net.num_nodes] = 0.4
    return [
        UniformPattern(net),
        HotSpotPattern(net, 0.3),
        HotSpotPattern(net, 0.7, hotspot_node=(2, 1)),
        TransposePattern(net),
        BitReversalPattern(net),
        MatrixPattern(net, matrix),
    ]


PATTERN_IDS = ["uniform", "hotspot", "hotspot-offset", "transpose",
               "bit-reversal", "matrix"]


class TestDrawMany:
    @pytest.mark.parametrize("index", range(6), ids=PATTERN_IDS)
    def test_chi_square_against_probabilities(self, net, index):
        # 20 000 messages from each of several sources (the hot node, a
        # diagonal/fixed point and ordinary nodes among them): the
        # counts fit destination_probabilities at the 1e-4 level, and
        # no zero-probability destination is ever drawn.
        pattern = all_patterns(net)[index]
        rng = np.random.default_rng(index)
        trials = 20_000
        for src in (0, 5, 6, 9, 15, net.rank((2, 1))):
            dest = pattern.draw_many(np.full(trials, src), rng)
            assert dest.dtype == np.int64
            counts = np.bincount(dest, minlength=net.num_nodes)
            p = pattern.destination_probabilities(src)
            assert counts[p == 0].sum() == 0, (src, counts)
            live = p > 0
            if live.sum() == 1:
                continue
            expected = trials * p[live]
            chi2 = float(((counts[live] - expected) ** 2 / expected).sum())
            assert chi2 < chi2_critical(live.sum() - 1), (src, chi2)

    @pytest.mark.parametrize("index", range(6), ids=PATTERN_IDS)
    def test_never_self_and_equal_to_one_draw_per_message(self, net, index):
        # A mixed batch never returns its source, and draws exactly what
        # one draw() per message, in order, would — generator state
        # included.
        pattern = all_patterns(net)[index]
        sources = np.random.default_rng(7).integers(0, net.num_nodes, 5_000)
        batch, single = np.random.default_rng(8), np.random.default_rng(8)
        dest = pattern.draw_many(sources, batch)
        assert not np.any(dest == sources)
        assert dest.tolist() == [pattern.draw(s, single) for s in sources.tolist()]
        assert batch.bit_generator.state == single.bit_generator.state

    def test_empty_batch_draws_nothing(self, net, rng):
        state = rng.bit_generator.state
        for pattern in all_patterns(net):
            assert pattern.draw_many(np.empty(0, dtype=np.int64), rng).size == 0
        assert rng.bit_generator.state == state


class TestFlows:
    @pytest.mark.parametrize("index", range(6), ids=PATTERN_IDS)
    def test_flows_rebuild_the_probabilities(self, net, index):
        # The uniform share plus the listed (source, destination) shares
        # give back every source's destination_probabilities.
        pattern = all_patterns(net)[index]
        n = net.num_nodes
        u, src, dst, p = pattern.flows()
        assert 0.0 <= u <= 1.0
        assert not np.any(src == dst)
        matrix = np.full((n, n), u / (n - 1))
        np.fill_diagonal(matrix, 0.0)
        np.add.at(matrix, (src, dst), p)
        expected = np.array([pattern.destination_probabilities(s) for s in range(n)])
        np.testing.assert_allclose(matrix, expected, rtol=0, atol=1e-15)
