import math
from types import SimpleNamespace

import pytest

from analysis_oracle import edge_dict
from conftest import make_network, random_network, rescaled
from tradenet.errors import DomainError, InsufficientDataError
from tradenet.metrics import LogBinSpec, _disparity, disparity_curve, node_metric_columns


def node_row(net, country, flow="total"):
    """One node's k, k_exp, k_imp, s and Y as the metrics table writes them:
    a degenerate node's s is the int 0 and its Y is None."""
    i = net.nodes.index(country)
    columns = node_metric_columns(net, flow).lists()
    return SimpleNamespace(**{name: column[i] for name, column
                              in zip(("k", "k_exp", "k_imp", "s", "Y"), columns)})


def brute_force_disparity(net, country):
    """Straight evaluation of the squared-share sum from the edge map."""
    incident = []
    for (a, b), (_, _, w) in edge_dict(net).items():
        if a == country or b == country:
            incident.append(w)
    s = sum(incident)
    return sum((w / s) ** 2 for w in incident)


class TestNodeMetrics:
    def test_columns_cached_per_flow_and_read_only(self, rng):
        net = random_network(rng, 12)
        total = node_metric_columns(net)
        assert node_metric_columns(net, "total") is total
        assert node_metric_columns(net, "export") is not total
        with pytest.raises(ValueError):
            total.s[0] = 0.0

    def test_equal_weights_lower_bound(self):
        net = make_network(2000, [("X", f"P{i}", 1.0, 1.0) for i in range(4)])
        nm = node_row(net, "X")
        assert nm.k == 4 and nm.Y == 0.25

    def test_uneven_weights(self):
        net = make_network(2000, [("X", "A", 1.0, 0.0), ("X", "B", 3.0, 0.0)])
        nm = node_row(net, "X")
        assert nm.s == 4.0
        assert nm.Y == 0.625  # (1/4)^2 + (3/4)^2

    def test_zero_export_edge_excluded_from_k_exp(self):
        net = make_network(2000, [("X", "A", 0.0, 2.0), ("X", "B", 3.0, 1.0)])
        nm = node_row(net, "X")
        assert nm.k == 2 and nm.k_exp == 1 and nm.k_imp == 2

    def test_directional_orientation(self):
        # X > A in code order, so X's outgoing flow sits on the w_imp slot
        net = make_network(2000, [("A", "X", 5.0, 2.0)])
        assert node_row(net, "X", "export").s == 2.0
        assert node_row(net, "X", "import").s == 5.0
        assert node_row(net, "A", "export").s == 5.0

    def test_degenerate_flow_marker(self):
        net = make_network(2000, [("X", "A", 0.0, 2.0)])
        nm = node_row(net, "X", "export")
        assert nm.s == 0.0 and nm.Y is None
        assert node_row(net, "X", "import").Y == 1.0

    def test_unknown_flow(self):
        net = make_network(2000, [("A", "B", 1.0, 1.0)])
        with pytest.raises(DomainError):
            node_metric_columns(net, "net")

    def test_matches_brute_force_exactly(self, rng):
        for _ in range(50):
            net = random_network(rng, int(rng.integers(3, 30)))
            for c in net.nodes:
                nm = node_row(net, c)
                assert nm.Y == brute_force_disparity(net, c)
                assert 1.0 / nm.k <= nm.Y <= 1.0
                assert max(nm.k_exp, nm.k_imp) <= nm.k <= nm.k_exp + nm.k_imp

    def test_power_of_two_rescale_is_exact(self, rng):
        net = random_network(rng, 12)
        scaled = rescaled(net, 4.0)
        assert scaled.w.tolist() == (4.0 * net.w).tolist()
        for c in net.nodes:
            base, big = node_row(net, c), node_row(scaled, c)
            assert (big.k, big.k_exp, big.k_imp) == (base.k, base.k_exp, base.k_imp)
            assert big.Y == base.Y
            assert big.s == 4.0 * base.s

    def test_general_rescale_within_float_error(self, rng):
        net = random_network(rng, 12)
        c = 3.7
        scaled = rescaled(net, c)
        for code in net.nodes:
            base, big = node_row(net, code), node_row(scaled, code)
            assert big.Y == pytest.approx(base.Y, rel=1e-12)
            assert big.s == pytest.approx(c * base.s, rel=1e-12)

    def test_columns_cover_nodes(self, rng):
        net = random_network(rng, 10)
        for flow in ("total", "export", "import"):
            assert all(len(column) == net.n_nodes
                       for column in node_metric_columns(net, flow).lists())


def clique_network(sizes, weight_of, copies=3, year=2000):
    """Disjoint complete graphs; edge weight from weight_of(i, j)."""
    edges = []
    tag = 0
    for m in sizes:
        for _ in range(copies):
            codes = [f"Q{tag:03d}x{i:03d}" for i in range(m)]
            for i in range(m):
                for j in range(i + 1, m):
                    w = weight_of(i, j)
                    edges.append((codes[i], codes[j], w / 2, w / 2))
            tag += 1
    return make_network(year, edges)


class TestDisparityCurve:
    def test_equal_weights_exponent_zero(self):
        net = clique_network([4, 8, 16, 32], lambda i, j: 1.0)
        curve = disparity_curve([net])
        assert all(m == pytest.approx(1.0, rel=1e-12) for _, m, _ in curve.points)
        assert abs(curve.exponent) < 1e-9

    def test_dominant_partner_exponent_near_one(self):
        net = clique_network([5, 9, 17, 33], lambda i, j: 4.0**i * 4.0**j)
        curve = disparity_curve([net], binning=LogBinSpec(bins_per_decade=16))
        assert 0.85 <= curve.exponent <= 1.05

    def test_bin_means_match_brute_force(self, rng):
        nets = [random_network(rng, 40, edge_prob=0.2, year=2000 + i)
                for i in range(3)]
        binning = LogBinSpec()
        curve = disparity_curve(nets, binning=binning)
        samples = []
        for net in nets:
            edges = edge_dict(net)
            for c in net.nodes:
                k = sum(c in key for key in edges)
                samples.append((k, k * brute_force_disparity(net, c)))
        # regroup independently around each reported bin center
        ratio = 10.0 ** (1.0 / binning.bins_per_decade)
        for center, mean_ky, count in curve.points:
            lo, hi = center / math.sqrt(ratio), center * math.sqrt(ratio)
            got = [ky for k, ky in samples if lo - 1e-9 <= k < hi - 1e-9]
            assert len(got) == count
            assert sum(got) / len(got) == pytest.approx(mean_ky, rel=1e-12)

    def test_counts_cover_all_nodes(self, rng):
        net = random_network(rng, 60, edge_prob=0.15)
        curve = disparity_curve([net])
        assert sum(n for _, _, n in curve.points) == net.n_nodes

    def test_insufficient_bins(self):
        net = make_network(2000, [("A", "B", 1.0, 1.0)])
        with pytest.raises(InsufficientDataError):
            disparity_curve([net])

    def test_min_count_gate(self):
        # occupied bins exist but too few reach the occupancy minimum
        net = clique_network([3, 6, 12], lambda i, j: 1.0, copies=1)
        with pytest.raises(InsufficientDataError):
            disparity_curve([net], binning=LogBinSpec(min_count=10))

    @pytest.mark.parametrize("bins_per_decade, min_count", [(0, 3), (8, 0), (-1, -1)])
    def test_bin_spec_rejects_non_positive_settings(self, bins_per_decade, min_count):
        with pytest.raises(DomainError, match="bin spec"):
            LogBinSpec(bins_per_decade, min_count)

    def test_degenerate_nodes_skipped(self):
        net = make_network(2000, [("A", "B", 3.0, 0.0), ("A", "C", 1.0, 0.0),
                                  ("B", "C", 0.0, 2.0)])
        ks, _ = _disparity(node_metric_columns(net, "export"), "export")
        # C exports nothing: absent from the export samples
        assert len(ks) == 2

    def test_export_degree_used_for_export_flow(self):
        net = make_network(2000, [("X", "A", 1.0, 1.0), ("X", "B", 0.0, 1.0)])
        # X exports only to A, so its export sample has degree 1, not 2
        assert node_row(net, "X", "export").k_exp == 1
        ks, kys = _disparity(node_metric_columns(net, "export"), "export")
        assert list(zip(ks.tolist(), kys.tolist())) == [(1, 1.0)] * 3
