import math

import numpy as np
import pytest

from analysis_oracle import edge_dict
from conftest import make_network, random_network
from tradenet.errors import DomainError, InsufficientDataError
from tradenet.percolation import (PercolationCurve, UnionFind,
                                  fit_exponential_approach, percolate)


def bfs_largest_component(nodes, edges):
    """Largest connected component size by breadth-first search."""
    adj = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    best = 0
    for start in nodes:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        size = 0
        while queue:
            node = queue.pop()
            size += 1
            for other in adj[node]:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        best = max(best, size)
    return best


def ordered_edges(net, order):
    ranked = sorted(edge_dict(net).items(),
                    key=lambda item: ((-item[1][2] if order == "descending" else item[1][2]),
                                      item[0]))
    return [key for key, _ in ranked]


def curve_of(points):
    """A descending curve through the (f, giant fraction) points."""
    f, giant = np.array(points, dtype=np.float64).reshape(-1, 2).T
    return PercolationCurve("descending", f, giant)


class TestUnionFind:
    def test_union_and_sizes(self):
        uf = UnionFind(5)
        assert uf.union(0, 1) == 2
        assert uf.union(1, 2) == 3
        assert uf.union(0, 2) == 3
        assert uf.size(3) == 1
        assert uf.find(0) == uf.find(2)
        assert uf.find(3) != uf.find(0)


class TestPercolate:
    def test_path_graph_descending(self):
        net = make_network(2000, [("A", "B", 3.0, 0.0), ("B", "C", 1.0, 0.0)])
        curve = percolate(net, "descending")
        assert curve.points == [(0.5, 2 / 3), (1.0, 1.0)]

    def test_star_symmetric_growth(self):
        net = make_network(2000, [("X", f"L{i}", float(i + 1), 0.0) for i in range(4)])
        for order in ("descending", "ascending"):
            points = percolate(net, order).points
            assert [g for _, g in points] == [(m + 1) / 5 for m in range(1, 5)]

    def test_final_point_is_largest_component(self, rng):
        # two disjoint cliques: the curve must end at the larger one's share
        edges = [(f"A{i}", f"A{j}", 1.0, 1.0) for i in range(4) for j in range(i + 1, 4)]
        edges += [(f"B{i}", f"B{j}", 2.0, 1.0) for i in range(3) for j in range(i + 1, 3)]
        net = make_network(2000, edges)
        for order in ("descending", "ascending"):
            assert percolate(net, order).points[-1] == (1.0, 4 / 7)

    def test_unknown_order(self, rng):
        net = random_network(rng, 5)
        with pytest.raises(DomainError):
            percolate(net, "shuffled")

    def test_matches_bfs_oracle(self, rng):
        for _ in range(40):
            net = random_network(rng, int(rng.integers(3, 30)), edge_prob=0.3)
            for order in ("descending", "ascending"):
                curve = percolate(net, order)
                inserted = []
                for key, (f, giant) in zip(ordered_edges(net, order), curve.points):
                    inserted.append(key)
                    expected = bfs_largest_component(net.nodes, inserted) / net.n_nodes
                    assert giant == expected

    def test_monotone_and_deterministic(self, rng):
        net = random_network(rng, 40, edge_prob=0.2)
        for order in ("descending", "ascending"):
            first = percolate(net, order)
            again = percolate(net, order)
            assert first.points == again.points
            giants = [g for _, g in first.points]
            assert all(a <= b for a, b in zip(giants, giants[1:]))

    def test_orders_share_endpoint(self, rng):
        for _ in range(10):
            net = random_network(rng, int(rng.integers(3, 25)), edge_prob=0.25)
            desc = percolate(net, "descending").points[-1]
            asc = percolate(net, "ascending").points[-1]
            assert desc == asc

    def test_tie_break_is_total(self):
        # all equal weights: insertion order is exactly the canonical pair order
        net = make_network(2000, [("A", "B", 1.0, 0.0), ("A", "C", 1.0, 0.0),
                                  ("B", "C", 1.0, 0.0)])
        assert ordered_edges(net, "descending") == [("A", "B"), ("A", "C"), ("B", "C")]
        assert ordered_edges(net, "ascending") == [("A", "B"), ("A", "C"), ("B", "C")]


class TestExponentialFit:
    def test_exact_synthetic_curve(self):
        fs = np.linspace(0.05, 1.0, 20)
        points = [(float(f), float(1.0 - math.exp(-5.0 * f))) for f in fs]
        curve = curve_of(points)
        fit = fit_exponential_approach(curve, (0.0, 1.0))
        assert fit.rate == pytest.approx(5.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_saturated_curve_is_insufficient(self):
        points = [(0.2, 1.0), (0.5, 1.0), (0.8, 1.0), (1.0, 1.0)]
        curve = curve_of(points)
        with pytest.raises(InsufficientDataError):
            fit_exponential_approach(curve, (0.0, 1.0))

    def test_range_filtering(self):
        points = [(0.1, 0.2), (0.2, 0.4), (0.3, 0.5), (0.9, 0.99)]
        curve = curve_of(points)
        with pytest.raises(InsufficientDataError):
            fit_exponential_approach(curve, (0.25, 0.95))

    def test_bad_range(self):
        curve = curve_of([(0.5, 0.5)])
        with pytest.raises(DomainError):
            fit_exponential_approach(curve, (0.9, 0.1))

    def test_gravity_network_has_exponential_intermediate_region(self):
        from tradenet.synth import GravityParams, generate_network

        for seed in (3, 4, 5):
            net = generate_network(GravityParams(n_countries=150,
                                                 noise_logsd=2.0, seed=seed), 2000)
            curve = percolate(net, "descending")
            fit = fit_exponential_approach(curve, (0.02, 0.3))
            assert fit.r_squared >= 0.9
            assert fit.rate > 0.0
