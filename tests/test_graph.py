import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_network, random_network
from tradenet.errors import (DomainError, EmptyNetworkError, NodeNotFoundError,
                             ParseError, ValidationError)
from tradenet.graph import (AnnualTradeNetwork, EdgeWeights, build_network,
                            network_to_pairs, snapshot_dumps, snapshot_loads,
                            summarize, symmetrize)
from tradenet.ingest import PairedFlows
from tradenet.metrics import node_metrics


class TestSymmetrize:
    def test_consistent_reports(self):
        pf = PairedFlows(1950, "A", "B", exp_ab=10.0, imp_ab=4.0, exp_ba=4.0, imp_ba=10.0)
        ew = symmetrize(pf)
        assert (ew.w_exp, ew.w_imp, ew.w) == (10.0, 4.0, 14.0)

    def test_one_sided_zero_policy_halves(self):
        pf = PairedFlows(1950, "A", "B", exp_ab=10.0, imp_ba=14.0)
        ew = symmetrize(pf)
        assert (ew.w_exp, ew.w_imp, ew.w) == (12.0, 0.0, 12.0)

    def test_one_sided_copy_policy_keeps(self):
        pf = PairedFlows(1950, "A", "B", exp_ab=10.0)
        assert symmetrize(pf, missing="zero").w_exp == 5.0
        assert symmetrize(pf, missing="copy").w_exp == 10.0

    def test_all_missing_is_no_edge(self):
        pf = PairedFlows(1950, "A", "B")
        assert symmetrize(pf) is None
        assert symmetrize(pf, missing="copy") is None

    def test_unknown_policy(self):
        with pytest.raises(DomainError):
            symmetrize(PairedFlows(1950, "A", "B", exp_ab=1.0), missing="drop")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.floats(0.0, 1e9, allow_nan=False)),
                    min_size=4, max_size=4),
           st.sampled_from(["zero", "copy"]))
    def test_total_identity_and_swap_invariance(self, flows, policy):
        exp_ab, imp_ab, exp_ba, imp_ba = flows
        pf = PairedFlows(2000, "A", "B", exp_ab, imp_ab, exp_ba, imp_ba)
        swapped = PairedFlows(2000, "A", "B", exp_ba, imp_ba, exp_ab, imp_ab)
        ew = symmetrize(pf, missing=policy)
        sw = symmetrize(swapped, missing=policy)
        if ew is None:
            assert sw is None
            return
        assert ew.w == ew.w_exp + ew.w_imp
        # swapping the two directions exchanges the roles but keeps the total
        assert sw.w_exp == ew.w_imp and sw.w_imp == ew.w_exp and sw.w == ew.w


class TestBuildNetwork:
    def test_three_pairs(self):
        pairs = [PairedFlows(2000, "A", "B", exp_ab=1.0),
                 PairedFlows(2000, "A", "C", exp_ab=2.0),
                 PairedFlows(2000, "B", "C", exp_ab=3.0)]
        net = build_network(pairs, 2000)
        assert net.n_nodes == 3 and net.n_links == 3

    def test_no_edge_pair_and_isolated_country_dropped(self):
        pairs = [PairedFlows(2000, "A", "B", exp_ab=1.0),
                 PairedFlows(2000, "C", "D")]
        net = build_network(pairs, 2000)
        assert net.nodes == ("A", "B")

    def test_empty_network_error(self):
        with pytest.raises(EmptyNetworkError):
            build_network([PairedFlows(2000, "A", "B")], 2000)

    def test_duplicate_pair_rejected(self):
        pairs = [PairedFlows(2000, "A", "B", exp_ab=1.0),
                 PairedFlows(2000, "A", "B", exp_ab=2.0)]
        with pytest.raises(ValidationError):
            build_network(pairs, 2000)

    def test_year_mismatch(self):
        with pytest.raises(ValidationError):
            build_network([PairedFlows(1999, "A", "B", exp_ab=1.0)], 2000)

    def test_order_independence(self, rng):
        pairs = [PairedFlows(2000, f"C{i}", f"C{j}", exp_ab=float(rng.random()))
                 for i in range(5) for j in range(i + 1, 6)]
        net1 = build_network(pairs, 2000)
        net2 = build_network(list(reversed(pairs)), 2000)
        assert net1 == net2
        assert list(net1.edges) == list(net2.edges)

    def test_non_canonical_edge_key_rejected(self):
        with pytest.raises(ValidationError):
            AnnualTradeNetwork(2000, {("B", "A"): EdgeWeights(1.0, 0.0, 1.0)})


class TestSummarize:
    def test_complete_graph_on_four(self):
        edges = [(a, b, 0.5, 0.5) for a, b in
                 [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")]]
        s = summarize(make_network(2000, edges))
        assert s.rho == 1.0
        assert s.total_trade == 6.0
        assert s.mean_weight == 1.0
        assert s.max_weight_share == pytest.approx(1 / 6)

    def test_single_edge(self):
        s = summarize(make_network(2000, [("A", "B", 3.0, 2.0)]))
        assert (s.n_nodes, s.n_links, s.rho) == (2, 1, 1.0)
        assert s.total_trade == 5.0 and s.max_weight_share == 1.0

    def test_density_1948_shape(self):
        # 76 nodes, 1494 links -> rho = 1494 / 2850
        assert 1494 / (76 * 75 / 2) == pytest.approx(0.5242, abs=1e-4)

    def test_strengths_sum_to_twice_total(self, rng):
        for _ in range(10):
            net = random_network(rng, int(rng.integers(3, 25)))
            total = summarize(net).total_trade
            s_sum = sum(node_metrics(net, c).s for c in net.nodes)
            assert s_sum == pytest.approx(2.0 * total, rel=1e-12)

    def test_neighbors_unknown_country(self, rng):
        net = random_network(rng, 5)
        with pytest.raises(NodeNotFoundError):
            net.neighbors("ZZ")


class TestSnapshot:
    def test_round_trip_bit_exact(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 20)))
            text = snapshot_dumps(net)
            back = snapshot_loads(text)
            assert back == net
            assert snapshot_dumps(back) == text

    def test_rejects_foreign_document(self):
        with pytest.raises(ValidationError):
            snapshot_loads('{"format": "something-else"}')

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            snapshot_loads("{not json")

    def test_rejects_malformed_edges(self):
        text = ('{"format":"trade-network-snapshot","version":1,"year":2000,'
                '"nodes":["A","B"],"edges":[["A","B",1.0]]}')
        with pytest.raises(ValidationError):
            snapshot_loads(text)

    @pytest.mark.parametrize("edge", [
        '["A","B",1.0,2.0]',  # listed twice
        '["B","C",1.0,Infinity]',
        '["B","C",-Infinity,2.0]',
        '["B","C",NaN,2.0]',
        '["B","C",Infinity,-Infinity]',
    ])
    @pytest.mark.filterwarnings("error")
    def test_rejects_repeated_edges_and_non_finite_weights(self, edge):
        text = ('{"format":"trade-network-snapshot","version":1,"year":2000,'
                f'"nodes":["A","B","C"],"edges":[["A","B",1.0,2.0],["A","C",1.0,1.0],{edge}]}}')
        with pytest.raises(ValidationError):
            snapshot_loads(text)

    def test_rejects_node_mismatch(self):
        text = ('{"format":"trade-network-snapshot","version":1,"year":2000,'
                '"nodes":["A","B","C"],"edges":[["A","B",1.0,2.0]]}')
        with pytest.raises(ValidationError):
            snapshot_loads(text)

    def test_network_to_pairs_rebuilds_exactly(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 20)))
            rebuilt = build_network(network_to_pairs(net), net.year)
            assert rebuilt == net
            assert snapshot_dumps(rebuilt) == snapshot_dumps(net)

    def test_network_to_pairs_handles_zero_flow_side(self):
        net = make_network(2000, [("A", "B", 4.0, 0.0)])
        (pf,) = network_to_pairs(net)
        assert pf.imp_ab is None and pf.exp_ba is None
        assert build_network([pf], 2000) == net
