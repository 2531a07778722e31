import gc
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_network, random_network, rebuilt_from_rows
from tradenet.errors import DomainError, EmptyNetworkError, ParseError, ValidationError
from tradenet.graph import (AnnualTradeNetwork, build_network, load_snapshot, save_snapshot,
                            snapshot_dumps, snapshot_loads, summarize)
from tradenet.ingest import PairedColumns, write_network_records
from tradenet.metrics import node_metric_columns
from tradenet.synth import GravityParams, generate_network


def paired(*rows, year=2000):
    """PairedColumns of one year from (a, b, exp_ab, imp_ab, exp_ba, imp_ba)
    rows, a < b; a missing or None flow is no report."""
    rows = sorted(row + (None,) * (6 - len(row)) for row in rows)
    codes = tuple(sorted({code for row in rows for code in row[:2]}))
    flows = np.array([row[2:] for row in rows], dtype=np.float64).reshape(len(rows), 4)
    return PairedColumns((year,), codes, np.zeros(len(rows), dtype=np.intp),
                         np.array([codes.index(row[0]) for row in rows], dtype=np.intp),
                         np.array([codes.index(row[1]) for row in rows], dtype=np.intp),
                         flows)


def edge_weights(rows, missing="zero"):
    """(w_exp, w_imp, w) of the one edge that rows build."""
    net = build_network(paired(*rows), 2000, missing)
    assert net.n_links == 1
    return net.w_exp[0], net.w_imp[0], net.w[0]


class TestSymmetrize:
    def test_consistent_reports(self):
        assert edge_weights([("A", "B", 10.0, 4.0, 4.0, 10.0)]) == (10.0, 4.0, 14.0)

    def test_one_sided_zero_policy_halves(self):
        assert edge_weights([("A", "B", 10.0, None, None, 14.0)]) == (12.0, 0.0, 12.0)

    def test_one_sided_copy_policy_keeps(self):
        assert edge_weights([("A", "B", 10.0)], missing="zero")[0] == 5.0
        assert edge_weights([("A", "B", 10.0)], missing="copy")[0] == 10.0

    def test_all_missing_is_no_edge(self):
        for missing in ("zero", "copy"):
            net = build_network(paired(("A", "B"), ("C", "D", 1.0)), 2000, missing)
            assert net.nodes == ("C", "D")

    def test_unknown_policy(self):
        with pytest.raises(DomainError):
            build_network(paired(("A", "B", 1.0)), 2000, missing="drop")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.floats(0.0, 1e9, allow_nan=False)),
                    min_size=4, max_size=4),
           st.sampled_from(["zero", "copy"]))
    def test_total_identity_and_swap_invariance(self, flows, policy):
        exp_ab, imp_ab, exp_ba, imp_ba = flows
        pairs = paired(("A", "B", exp_ab, imp_ab, exp_ba, imp_ba))
        swapped = paired(("A", "B", exp_ba, imp_ba, exp_ab, imp_ab))
        nets = []
        for cols in (pairs, swapped):
            try:
                nets.append(build_network(cols, 2000, policy))
            except EmptyNetworkError:  # both weights came out zero: no edge
                nets.append(None)
        ew, sw = nets
        if ew is None:
            assert sw is None
            return
        assert ew.w[0] == ew.w_exp[0] + ew.w_imp[0]
        # swapping the two directions exchanges the roles but keeps the total
        assert sw.w_exp[0] == ew.w_imp[0] and sw.w_imp[0] == ew.w_exp[0] and sw.w[0] == ew.w[0]


class TestBuildNetwork:
    def test_three_pairs(self):
        net = build_network(paired(("A", "B", 1.0), ("A", "C", 2.0), ("B", "C", 3.0)), 2000)
        assert net.n_nodes == 3 and net.n_links == 3

    def test_no_edge_pair_and_isolated_country_dropped(self):
        net = build_network(paired(("A", "B", 1.0), ("C", "D")), 2000)
        assert net.nodes == ("A", "B")

    def test_empty_network_error(self):
        with pytest.raises(EmptyNetworkError):
            build_network(paired(("A", "B")), 2000)

    def test_uses_only_the_rows_of_its_year(self):
        cols = paired(("A", "B", 1.0), ("A", "C", 2.0))
        cols = PairedColumns((1999, 2000), cols.codes, np.array([0, 1]), cols.a, cols.b,
                             cols.flows)
        assert build_network(cols, 2000).nodes == ("A", "C")
        with pytest.raises(EmptyNetworkError):
            build_network(cols, 2001)

    def test_order_independence(self, rng):
        edges = [(f"C{i}", f"C{j}", float(rng.random()), 0.0)
                 for i in range(5) for j in range(i + 1, 6)]
        net1 = make_network(2000, edges)
        net2 = make_network(2000, list(reversed(edges)))
        assert net1 == net2
        assert net1 == build_network(paired(*(e[:3] for e in edges)), 2000, "copy")

    def test_non_canonical_edge_key_rejected(self):
        with pytest.raises(ValidationError):
            AnnualTradeNetwork(2000, ["B"], ["A"], [1.0], [0.0])

    def test_constructor_checks_its_lists(self):
        with pytest.raises(EmptyNetworkError):
            AnnualTradeNetwork(2000, [], [], [], [])
        with pytest.raises(ValidationError, match="duplicate edge"):
            AnnualTradeNetwork(2000, ["A", "A"], ["B", "B"], [1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValidationError, match="unequal length"):
            AnnualTradeNetwork(2000, ["A"], ["B"], [1.0, 2.0], [0.0])
        net = AnnualTradeNetwork(2000, ["A"], ["B"], [0.1], [0.2])
        assert net.w.tolist() == [0.1 + 0.2]


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
            s_sum = sum(node_metric_columns(net).s.tolist())
            assert s_sum == pytest.approx(2.0 * total, rel=1e-12)


class TestSnapshot:
    def test_save_writes_the_dumps_text_and_loads_back(self, tmp_path):
        net = generate_network(GravityParams(n_countries=12, seed=4), 2000)
        path = tmp_path / "2000_network.json"
        save_snapshot(net, path)
        assert path.read_bytes() == snapshot_dumps(net).encode("utf-8")
        assert load_snapshot(path) == net

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

    @pytest.mark.parametrize("year, edge, problem", [
        ("2000", '["A","B","1.5",2.0]', "edge weight '1.5' is not a JSON number"),
        ("2000", '["A","B",1.0," 1_0 "]', "edge weight ' 1_0 ' is not a JSON number"),
        ("2000", '["A","B",true,2.0]', "edge weight True is not a JSON number"),
        ("2000", '["A","B",1.0,null]', "edge weight None is not a JSON number"),
        ("2000", '["A","B",[1.0],2.0]', "edge weight [1.0] is not a JSON number"),
        ("2000", '["A","B",1' + "0" * 400 + ',2.0]', "too large"),
        ("1990.7", '["A","B",1.0,2.0]', "year 1990.7 is not a JSON integer"),
        ("2000.0", '["A","B",1.0,2.0]', "year 2000.0 is not a JSON integer"),
        ("true", '["A","B",1.0,2.0]', "year True is not a JSON integer"),
        ('"1990"', '["A","B",1.0,2.0]', "year '1990' is not a JSON integer"),
        ("2000", '["A",2,1.0,2.0]', "country code 2 is not a JSON string"),
        ("2000", '[1,"B",1.0,2.0]', "country code 1 is not a JSON string"),
    ], ids=["weight-str", "weight-padded-str", "weight-bool", "weight-null", "weight-list",
            "weight-huge-int", "year-float", "year-integral-float", "year-bool", "year-str",
            "code-int-b", "code-int-a"])
    def test_rejects_values_of_other_json_types(self, year, edge, problem):
        text = ('{"format":"trade-network-snapshot","version":1,'
                f'"year":{year},"nodes":["A","B"],"edges":[{edge}]}}')
        with pytest.raises(ValidationError, match=re.escape(problem)):
            snapshot_loads(text)

    def test_reads_int_weights_as_floats(self):
        text = ('{"format":"trade-network-snapshot","version":1,"year":2000,'
                '"nodes":["A","B"],"edges":[["A","B",3,0]]}')
        assert snapshot_loads(text) == make_network(2000, [("A", "B", 3.0, 0.0)])

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("text, raises", [
        (None, None),
        ("{not json", ParseError),
        ('{"format":"trade-network-snapshot","version":1,"year":2000,"nodes":["A","B"],'
         '"edges":[["A","B",1.0]]}', ValidationError),
        ('{"format":"trade-network-snapshot","version":1,"year":2000,"nodes":[],"edges":[]}',
         EmptyNetworkError),
    ], ids=["loaded", "parse-error", "validation-error", "empty-network"])
    def test_leaves_the_collector_as_it_found_it(self, rng, collecting, text, raises):
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if raises is None:
                snapshot_loads(snapshot_dumps(random_network(rng, 10)))
            else:
                with pytest.raises(raises):
                    snapshot_loads(text)
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_rejects_node_mismatch(self):
        text = ('{"format":"trade-network-snapshot","version":1,"year":2000,'
                '"nodes":["A","B","C"],"edges":[["A","B",1.0,2.0]]}')
        with pytest.raises(ValidationError):
            snapshot_loads(text)

    @pytest.mark.parametrize("nodes, edges, raises, message", [
        (["A", "B"], None, ValidationError, "snapshot node list does not match edge endpoints"),
        (["A", "B", "C", "D"], None, ValidationError,
         "snapshot node list does not match edge endpoints"),
        (["A", "C", "B"], None, ValidationError,
         "snapshot node list does not match edge endpoints"),
        (["A", "B", "B", "C"], None, ValidationError,
         "snapshot node list does not match edge endpoints"),
        (["", "A", "B", "C"], [["", "A", 1.0, 0.0]], ValidationError,
         "edge key ('', 'A') is not a canonical pair"),
        (None, [["B", "A", 1.0, 0.0]], ValidationError,
         "edge key ('B', 'A') is not a canonical pair"),
        (None, [["C", "C", 1.0, 0.0]], ValidationError,
         "edge key ('C', 'C') is not a canonical pair"),
        (None, [["A", "B", 1.0, 0.0]], ValidationError, "duplicate edge (A, B)"),
        ([], [], EmptyNetworkError, "no edges for year 2000"),
    ], ids=["endpoint-not-a-node", "unused-node", "unsorted-nodes", "repeated-node",
            "empty-code", "reversed-pair", "self-pair", "repeated-edge", "no-edges"])
    def test_rejects_a_single_fault(self, nodes, edges, raises, message):
        # One fault in a valid three-node document; ``edges`` are appended
        # to its edges (an empty list replaces them).
        doc = {"format": "trade-network-snapshot", "version": 1, "year": 2000,
               "nodes": ["A", "B", "C"],
               "edges": [["A", "B", 1.0, 2.0], ["A", "C", 1.0, 1.0], ["B", "C", 0.5, 0.0]]}
        if nodes is not None:
            doc["nodes"] = nodes
        if edges == []:
            doc["edges"] = []
        elif edges is not None:
            doc["edges"] += edges
        with pytest.raises(raises) as exc:
            snapshot_loads(json.dumps(doc))
        assert str(exc.value) == message

    def test_loads_edges_out_of_canonical_order(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 20)))
            doc = json.loads(snapshot_dumps(net))
            rng.shuffle(doc["edges"])
            back = snapshot_loads(json.dumps(doc))
            assert back == net
            assert back.nodes == net.nodes

    def test_dyadic_rows_rebuild_exactly(self, rng):
        for _ in range(20):
            net = random_network(rng, int(rng.integers(2, 20)))
            rebuilt = rebuilt_from_rows(net)
            assert rebuilt == net
            assert snapshot_dumps(rebuilt) == snapshot_dumps(net)

    def test_dyadic_rows_handle_zero_flow_side(self):
        net = make_network(2000, [("A", "B", 4.0, 0.0)])
        buf = io.StringIO()
        write_network_records([net], buf)
        assert buf.getvalue().splitlines()[1:] == ["2000,A,B,4.0,", "2000,B,A,,4.0"]
        for missing in ("zero", "copy"):
            assert rebuilt_from_rows(net, missing) == net
