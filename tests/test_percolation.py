import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import analysis_oracle as oracle
from analysis_oracle import edge_dict
from conftest import make_network, random_network
from tradenet.distributions import linear_fit
from tradenet.errors import DomainError, InsufficientDataError
from tradenet.percolation import (ORDERS, PercolationCurve, _largest_after_unions,
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

    def test_giant_spanning_before_the_last_link_matches_bfs_oracle(self, rng):
        # A complete graph spans its nodes after a few of its links; the union
        # loop stops there and percolate fills in the rest of the curve.
        codes = [f"C{i}" for i in range(7)]
        net = make_network(2000, [(a, b, float(rng.uniform(1.0, 10.0)), 0.0)
                                  for i, a in enumerate(codes) for b in codes[i + 1:]])
        for order in ORDERS:
            curve = percolate(net, order)
            assert len(curve.points) == net.n_links
            assert curve.giant.tolist().index(1.0) < net.n_links - 10
            inserted = ordered_edges(net, order)
            for m, (_, giant) in enumerate(curve.points, start=1):
                assert giant == bfs_largest_component(net.nodes, inserted[:m]) / net.n_nodes

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

    @pytest.mark.parametrize("order", ORDERS)
    def test_tied_weights_rank_as_the_stable_sort(self, rng, order):
        # Weights of three values tie on most links.  numpy's default sort
        # orders the ties of arrays this long otherwise than a stable sort,
        # so percolate must fall back to the stable one to keep pair order.
        unstable = 0
        for _ in range(10):
            codes = [f"C{i:02d}" for i in range(int(rng.integers(30, 60)))]
            edges = [(a, b, float(rng.choice([1.0, 2.5, 4.0])), 0.0)
                     for i, a in enumerate(codes) for b in codes[i + 1:] if rng.random() < 0.3]
            net = make_network(2000, edges)
            key = -net.w if order == "descending" else net.w
            unstable += not np.array_equal(np.argsort(key), np.argsort(key, kind="stable"))
            f, giant = np.array(oracle.percolate(edge_dict(net), order)).T
            curve = percolate(net, order)
            assert curve.f.tobytes() == f.tobytes()
            assert curve.giant.tobytes() == giant.tobytes()
        assert unstable


# Edge counts about each block size of the union walk (32, 64, 128) and
# each block's end (32, 96, 224).
BLOCK_EDGES = [1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 223, 224, 225]


@st.composite
def edge_sequences(draw):
    """(n, a, b): ``len(a)`` edges over ``n`` nodes that fall into a few
    groups, each edge inside one group but for a share that join two, so
    that several components grow side by side and may join before the last
    edge or never."""
    n = draw(st.integers(2, 60))
    length = draw(st.sampled_from(BLOCK_EDGES))
    joining = draw(st.sampled_from([0.0, 0.02, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    group = rng.integers(0, draw(st.integers(1, 4)), n)
    x = rng.integers(0, n, length)
    y = rng.integers(0, n, length)
    # An edge that does not join groups takes the first node of x's group
    # at or after y, wrapping round.
    for k in np.flatnonzero(rng.random(length) >= joining):
        mates = np.flatnonzero(group == group[x[k]])
        y[k] = mates[np.searchsorted(mates, y[k]) % len(mates)]
    y = np.where(x == y, (x + 1) % n, y)
    return n, np.minimum(x, y).astype(np.int32), np.maximum(x, y).astype(np.int32)


@settings(max_examples=300, deadline=None)
@given(edge_sequences())
@example((3, np.array([0, 0, 1], dtype=np.int32), np.array([1, 2, 2], dtype=np.int32)))
def test_block_filtered_unions_equal_the_per_edge_loop(edges):
    """The union walk that skips the edges inside one set at a block's
    start gives the per-edge loop's sizes, and stops where it does, with the
    edges in the given order and reversed."""
    n, a, b = edges
    for a, b in ((a, b), (a[::-1], b[::-1])):
        assert _largest_after_unions(n, a, b).tolist() == oracle.largest_after_unions(
            n, a.tolist(), b.tolist())


def test_700_nodes_match_bfs_oracle(rng):
    """A sparse 700-node network, in which components join across many
    blocks of the union walk: the giant fraction at each block's end, on
    either side of it and at every 25th insertion is the BFS one."""
    net = random_network(rng, 700, edge_prob=0.003)
    ends = np.cumsum([32 * 2 ** k for k in range(8)])
    checked = sorted({m for end in ends for m in (end - 1, end, end + 1)
                      if 1 <= m <= net.n_links}
                     | set(range(25, net.n_links + 1, 25)) | {net.n_links})
    for order in ORDERS:
        curve = percolate(net, order)
        inserted = ordered_edges(net, order)
        assert 0.5 < curve.giant[-1] < 1.0  # several components to the end
        for m in checked:
            assert curve.giant[m - 1] == bfs_largest_component(net.nodes,
                                                               inserted[:m]) / net.n_nodes


def reference_fit(curve, fit_range):
    """(rate, r_squared) of the exponential fit with math.log called once
    per in-range point, or None for fewer than 3 points."""
    f_lo, f_hi = fit_range
    xs, ys = [], []
    for f, giant in curve.points:
        if f_lo <= f <= f_hi and giant < 1.0:
            xs.append(f)
            ys.append(math.log(1.0 - giant))
    if len(xs) < 3:
        return None
    slope, _, _, r_squared = linear_fit(xs, ys)
    return -slope, r_squared


def synthetic_curve():
    fs = np.linspace(0.05, 1.0, 20)
    return curve_of([(float(f), float(1.0 - math.exp(-5.0 * f))) for f in fs])


class TestExponentialFit:
    def test_exact_synthetic_curve(self):
        fit = fit_exponential_approach(synthetic_curve(), (0.0, 1.0))
        assert fit.rate == pytest.approx(5.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("order", ["descending", "ascending"])
    def test_matches_per_point_logs_bit_for_bit(self, rng, order):
        cases = [(synthetic_curve(), (0.0, 1.0))]
        for _ in range(20):
            net = random_network(rng, int(rng.integers(4, 40)))
            cases.append((percolate(net, order), (0.0, float(rng.uniform(0.3, 1.0)))))
        fitted = 0
        for curve, fit_range in cases:
            want = reference_fit(curve, fit_range)
            if want is None:
                with pytest.raises(InsufficientDataError):
                    fit_exponential_approach(curve, fit_range)
                continue
            fit = fit_exponential_approach(curve, fit_range)
            assert (fit.rate, fit.r_squared) == want
            fitted += 1
        assert fitted >= 15

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
