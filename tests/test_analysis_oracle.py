"""The array-backed analyses equal the dict-based oracle bit for bit.

Values are compared through repr, so a last-bit difference, an int 0 in
place of 0.0 or a numpy scalar in place of a Python float all fail.
"""

from dataclasses import astuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

import analysis_oracle as oracle
from tradenet.graph import AnnualTradeNetwork, EdgeWeights, summarize
from tradenet.metrics import (FLOWS, all_node_metrics, disparity_samples,
                              node_metrics)
from tradenet.percolation import ORDERS, percolate
from tradenet.richclub import rich_club_curve

# Codes of unequal length, so string order differs from (length, string) order.
CODES = ["A", "AB", "B", "B1", "BA", "C", "C10", "C9", "ZZZ", "a"]
# A few round values make weight and strength ties likely; zeros make
# one-directional edges.
FLOW = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
                 st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def networks(draw):
    """{(a, b): (w_exp, w_imp, w)} with 2 to 8 nodes and at least one edge."""
    codes = sorted(draw(st.lists(st.sampled_from(CODES), min_size=2, max_size=8,
                                 unique=True)))
    pairs = [(x, y) for i, x in enumerate(codes) for y in codes[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    edges = {}
    for key in chosen:
        w_exp, w_imp = draw(FLOW), draw(FLOW)
        if w_exp + w_imp == 0.0:
            w_imp = 1.0
        edges[key] = (w_exp, w_imp, w_exp + w_imp)
    return edges


def exact(value) -> str:
    return repr(value)


@settings(max_examples=400, deadline=None)
@given(networks())
@example({("A", "B"): (2.0, 0.0, 2.0)})
@example({("AB", "B"): (0.0, 1.5, 1.5), ("A", "AB"): (1.0, 0.5, 1.5),
          ("A", "B"): (0.75, 0.75, 1.5), ("B", "C10"): (1.5, 0.0, 1.5)})
def test_array_analyses_equal_the_dict_oracle(edges):
    net = AnnualTradeNetwork(2000, {key: EdgeWeights(*w) for key, w in edges.items()})
    assert exact(astuple(summarize(net))) == exact(oracle.summarize(2000, edges))
    for flow in FLOWS:
        every = all_node_metrics(net, flow)
        assert list(every) == list(net.nodes)
        for country in net.nodes:
            want = exact(oracle.node_metrics(edges, country, flow))
            assert exact(astuple(node_metrics(net, country, flow))) == want
            assert exact(astuple(every[country])) == want
        assert (exact(disparity_samples(net, flow))
                == exact(oracle.disparity_samples(edges, flow)))
    for order in ORDERS:
        assert exact(percolate(net, order).points) == exact(oracle.percolate(edges, order))
    curve = rich_club_curve(net)
    assert exact((curve.points, curve.s_max)) == exact(oracle.rich_club_curve(edges))
