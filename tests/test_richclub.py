import itertools

import pytest

from analysis_oracle import edge_dict
from conftest import make_network, random_network, rescaled
from tradenet.errors import DomainError
from tradenet.metrics import node_metric_columns
from tradenet.richclub import rich_club_curve, rich_club_size


def strengths(net):
    return dict(zip(net.nodes, node_metric_columns(net).s.tolist()))


def brute_force_club_size(net, threshold):
    """Exhaustive scan over all strength-ordered suffixes, sums from scratch."""
    strength = strengths(net)
    seq = sorted(net.nodes, key=lambda c: (strength[c], c))
    edges = edge_dict(net)
    total = sum(w for _, _, w in edges.values())
    best = len(seq)
    for start in range(len(seq)):
        club = set(seq[start:])
        internal = sum(w for (a, b), (_, _, w) in edges.items()
                       if a in club and b in club)
        if internal >= threshold * total:
            best = len(seq) - start
        else:
            break
    return best


class TestRichClubCurve:
    def test_triangle_equal_weights(self):
        net = make_network(2000, [("A", "B", 1.0, 0.0), ("A", "C", 1.0, 0.0),
                                  ("B", "C", 1.0, 0.0)])
        curve = rich_club_curve(net)
        assert curve.s_max == 2.0
        assert [p[1] for p in curve.points] == [1.0, pytest.approx(1 / 3), 0.0]
        assert [p[2] for p in curve.points] == [3, 2, 1]

    def test_star_leaf_removals(self):
        net = make_network(2000, [("X", f"L{i}", 1.0, 0.0) for i in range(3)])
        curve = rich_club_curve(net)
        # full set, then one leaf gone, two leaves gone, hub alone
        assert [p[1] for p in curve.points] == [
            1.0, pytest.approx(2 / 3), pytest.approx(1 / 3), 0.0]

    def test_endpoints_exact(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 20)))
            points = rich_club_curve(net).points
            assert points[0][1] == 1.0
            assert points[-1][1] == 0.0
            assert points[-1][2] == 1

    def test_monotone_non_increasing(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(3, 25)))
            fws = [f_w for _, f_w, _ in rich_club_curve(net).points]
            assert all(a >= b for a, b in zip(fws, fws[1:]))

    def test_incremental_matches_recomputation(self, rng):
        # the accumulated internal trade must agree with summing each
        # suffix's edges from scratch
        for _ in range(15):
            net = random_network(rng, int(rng.integers(3, 20)))
            strength = strengths(net)
            seq = sorted(net.nodes, key=lambda c: (strength[c], c))
            edges = edge_dict(net)
            total = sum(w for _, _, w in edges.values())
            for (_, f_w, size) in rich_club_curve(net).points:
                club = set(seq[len(seq) - size:])
                scratch = sum(w for (a, b), (_, _, w) in edges.items()
                              if a in club and b in club)
                assert f_w == pytest.approx(scratch / total, abs=1e-12)

    def test_x_axis_is_weakest_member_share(self):
        net = make_network(2000, [("A", "B", 4.0, 0.0), ("B", "C", 1.0, 0.0)])
        # strengths: A=4, B=5, C=1 -> order C, A, B
        curve = rich_club_curve(net)
        assert [p[0] for p in curve.points] == [
            pytest.approx(1 / 5), pytest.approx(4 / 5), 1.0]


class TestRichClubSize:
    def test_two_node_network(self):
        net = make_network(2000, [("A", "B", 1.0, 1.0)])
        curve = rich_club_curve(net)
        assert rich_club_size(curve, net, 0.5) == (2, 1.0)

    def test_three_hubs_carry_eighty_percent(self):
        edges = [("H1", "H2", 8.0, 0.0), ("H1", "H3", 8.0, 0.0), ("H2", "H3", 8.0, 0.0)]
        leaves = [f"P{i}" for i in range(7)]
        hubs = itertools.cycle(["H1", "H2", "H3"])
        for leaf, hub in zip(leaves, hubs):
            edges.append((hub, leaf, 6.0 / 7.0, 0.0))
        net = make_network(2000, edges)
        curve = rich_club_curve(net)
        club_size, s_rc = rich_club_size(curve, net, 0.5)
        assert club_size == 3
        assert s_rc == pytest.approx(0.3)

    def test_matches_exhaustive_search(self, rng):
        for _ in range(60):
            net = random_network(rng, int(rng.integers(2, 15)))
            curve = rich_club_curve(net)
            for threshold in (0.25, 0.5, 0.75):
                club_size, s_rc = rich_club_size(curve, net, threshold)
                assert club_size == brute_force_club_size(net, threshold)
                assert s_rc == club_size / net.n_nodes

    def test_threshold_domain(self, rng):
        net = random_network(rng, 5)
        curve = rich_club_curve(net)
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(DomainError):
                rich_club_size(curve, net, bad)

    def test_power_of_two_rescale_invariance(self, rng):
        net = random_network(rng, 12)
        scaled = rescaled(net, 4.0)
        base_curve = rich_club_curve(net)
        big_curve = rich_club_curve(scaled)
        assert [p[1] for p in base_curve.points] == [p[1] for p in big_curve.points]
        assert rich_club_size(base_curve, net) == rich_club_size(big_curve, scaled)


def s_rc(net):
    """The fractional rich-club size of one network: its S_RC series entry."""
    return rich_club_size(rich_club_curve(net), net)[1]


class TestRichClubSeries:
    def test_identical_networks_identical_values(self, rng):
        net1 = random_network(rng, 10, year=1990)
        net2 = rescaled(net1, 1.0, year=1991)
        assert s_rc(net1) == s_rc(net2)

    def test_gravity_shapes_show_shrinking_club(self):
        # wider GDP spread on a larger network concentrates trade, so the
        # half-of-trade club is a smaller fraction of countries
        from tradenet.synth import GravityParams, generate_network

        def gravity_s_rc(n, gdp_logsd, seed, year):
            params = GravityParams(n_countries=n, gdp_logsd=gdp_logsd,
                                   link_density_target=0.52, noise_logsd=1.0,
                                   seed=seed)
            return s_rc(generate_network(params, year))

        early = [gravity_s_rc(76, 0.5, seed, 1948) for seed in range(5)]
        late = [gravity_s_rc(187, 2.0, seed, 2000) for seed in range(5)]
        assert min(early) > max(late)

    def test_hub_concentration_panel_non_increasing(self):
        # year t: a clique of (10 - t) dominant countries plus a weak ring;
        # concentration grows with t, so S_RC cannot grow.
        nets = []
        n = 20
        for t in range(9):
            h = 10 - t
            edges = {}
            hubs = [f"C{i:02d}" for i in range(h)]
            for i in range(h):
                for j in range(i + 1, h):
                    edges[(hubs[i], hubs[j])] = (500.0, 500.0)
            for i in range(n):
                a, b = f"C{i:02d}", f"C{(i + 1) % n:02d}"
                if a > b:
                    a, b = b, a
                edges.setdefault((a, b), (0.5, 0.5))
            nets.append(make_network(1990 + t, [key + w for key, w in edges.items()]))
        values = list(map(s_rc, nets))
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]
