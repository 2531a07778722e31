"""Symmetrized annual trade networks and whole-network summary statistics.

Each unordered country pair (a, b) with a < b carries an export weight
(the averaged reports of the flow a -> b), an import weight (the averaged
reports of the flow b -> a), and their sum as the undirected link weight.
Weights are million USD stored as 64-bit floats.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np

from ._text import (SNAPSHOT_FORMAT, SNAPSHOT_VERSION, _atomic_file, _edge_text, _read_utf8,
                    _write_snapshot)
from .errors import DomainError, EmptyNetworkError, ParseError, ValidationError
from .ingest import PairedColumns

MISSING_FLOW_POLICIES = ("zero", "copy")


@dataclass(frozen=True)
class NetworkSummary:
    year: int
    n_nodes: int
    n_links: int
    rho: float
    total_trade: float
    mean_weight: float
    max_weight: float
    max_weight_share: float


def _symmetrized(flows: np.ndarray, missing: str) -> tuple[np.ndarray, np.ndarray]:
    """Export and import weights of pairs from their flow slots.

    ``flows`` has one row per pair and one column per ingest.FLOW_SLOTS
    entry; a value that is not > 0 (NaN, zero) counts as not reported.  The
    export weight along (a, b) averages a's reported export to b with b's
    reported import from a; the import weight averages the two reports of
    the opposite flow.  Under ``zero`` a missing report enters the average
    as 0, so a one-sided report is halved; under ``copy`` the present
    report stands in for the missing one.
    """
    if missing not in MISSING_FLOW_POLICIES:
        raise DomainError(
            f"unknown missing-flow policy {missing!r}; expected one of {MISSING_FLOW_POLICIES}")
    present = flows > 0
    exp_ab, imp_ab, exp_ba, imp_ba = np.where(present, flows, 0.0).T
    has_exp_ab, has_imp_ab, has_exp_ba, has_imp_ba = present.T
    return (_average(exp_ab, imp_ba, has_exp_ab & has_imp_ba, missing),
            _average(exp_ba, imp_ab, has_exp_ba & has_imp_ab, missing))


def _average(reported, mirrored, both, missing):
    total = reported + mirrored  # an absent report is 0 here
    if missing == "zero":
        return total / 2.0
    return np.where(both, total / 2.0, total)


class AnnualTradeNetwork:
    """Immutable weighted undirected network for one year.

    ``nodes`` is the sorted tuple of country codes, each an endpoint of at
    least one edge.  Edge ``e`` joins ``nodes[a[e]]`` and ``nodes[b[e]]``
    with ``a[e] < b[e]``; the int32 arrays ``a`` and ``b`` are sorted by
    (a, b), and the float64 arrays ``w_exp``, ``w_imp`` and ``w = w_exp +
    w_imp`` hold its weights.  Because the codes are sorted, comparing two
    node indices compares the codes.  Instances and their arrays are
    treated as read-only, so metrics.node_metric_columns caches its results
    on the network, keyed by flow.
    """

    __slots__ = ("year", "nodes", "a", "b", "w_exp", "w_imp", "w", "_metric_columns")

    def __init__(self, year: int, a_codes, b_codes, w_exp, w_imp):
        """Network from edge lists in any order: edge ``e`` joins
        ``a_codes[e] < b_codes[e]`` with flow weights ``w_exp[e]`` and
        ``w_imp[e]``.

        Raises EmptyNetworkError for no edges and ValidationError for a pair
        that is not canonical or repeats, or for weights that are not
        finite, negative or sum to a non-positive total.
        """
        w_exp = np.asarray(w_exp, dtype=np.float64)
        w_imp = np.asarray(w_imp, dtype=np.float64)
        if not len(a_codes) == len(b_codes) == len(w_exp) == len(w_imp):
            raise ValidationError("edge lists of unequal length")
        nodes = tuple(sorted(set(a_codes).union(b_codes)))
        self._build(year, nodes, *_node_indices(nodes, a_codes, b_codes), w_exp, w_imp)

    @classmethod
    def _from_indices(cls, year: int, codes: tuple, a, b, w_exp, w_imp) -> AnnualTradeNetwork:
        """Network of the edges ``(codes[a[e]], codes[b[e]])``; see _build."""
        net = cls.__new__(cls)
        net._build(year, codes, a, b, w_exp, w_imp)
        return net

    def _build(self, year: int, codes: tuple, a, b, w_exp, w_imp) -> None:
        """Set up the network of edges in any order that index the sorted,
        distinct ``codes``, every network's one build path.

        A pair that is not canonical or repeats is rejected, edges are sorted
        by (a, b) only when they are out of order, codes that no edge uses
        are dropped and the weights are checked.
        """
        if not len(a):
            raise EmptyNetworkError(f"no edges for year {year}")
        a, b, w_exp, w_imp = _sorted_edges(codes, a, b, w_exp, w_imp)
        used = np.zeros(len(codes), dtype=bool)
        used[a] = used[b] = True
        if not used.all():
            codes = tuple(itertools.compress(codes, used.tolist()))
            rank = np.cumsum(used) - 1
            a, b = rank[a], rank[b]
        a, b = a.astype(np.int32, copy=False), b.astype(np.int32, copy=False)
        with np.errstate(invalid="ignore"):  # inf + -inf: rejected as non-finite below
            w = w_exp + w_imp
        _check_weights(codes, a, b, w_exp, w_imp, w)
        self.year = year
        self.nodes = codes
        self.a = a
        self.b = b
        self.w_exp = w_exp
        self.w_imp = w_imp
        self.w = w
        self._metric_columns = {}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.w)

    @property
    def degrees(self) -> np.ndarray:
        """Partner count of every node, in node order."""
        return np.bincount(np.concatenate([self.a, self.b]), minlength=self.n_nodes)

    def __eq__(self, other):
        if not isinstance(other, AnnualTradeNetwork):
            return NotImplemented
        return (self.year == other.year and self.nodes == other.nodes
                and all(np.array_equal(getattr(self, f), getattr(other, f))
                        for f in ("a", "b", "w_exp", "w_imp", "w")))

    def __repr__(self):
        return f"AnnualTradeNetwork(year={self.year}, N={self.n_nodes}, L={self.n_links})"


def _node_indices(nodes: tuple, a_codes, b_codes) -> tuple[np.ndarray, np.ndarray]:
    """The positions in ``nodes`` of the edge endpoints; KeyError for an
    endpoint that is not in ``nodes``."""
    position = dict(zip(nodes, range(len(nodes))))
    return (np.fromiter(map(position.__getitem__, a_codes), np.int32, len(a_codes)),
            np.fromiter(map(position.__getitem__, b_codes), np.int32, len(b_codes)))


def _sorted_edges(nodes: tuple, a, b, w_exp, w_imp):
    """Edge arrays sorted by (a, b) from edges in any order that index the
    sorted ``nodes``, with a pair that is not canonical or repeats rejected.

    Edges already in strictly increasing (a, b) order are returned as they
    are, without a sort.
    """
    bad = (a >= b) | ((a == 0) & (nodes[0] == ""))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(
            f"edge key ({nodes[a[k]]!r}, {nodes[b[k]]!r}) is not a canonical pair")
    key = a.astype(np.int64) * len(nodes) + b
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        a, b, key, w_exp, w_imp = a[order], b[order], key[order], w_exp[order], w_imp[order]
        repeated = key[1:] == key[:-1]
        if repeated.any():
            k = int(np.argmax(repeated))
            raise ValidationError(f"duplicate edge ({nodes[a[k]]}, {nodes[b[k]]})")
    return a, b, w_exp, w_imp


def _check_weights(nodes, a, b, w_exp, w_imp, w) -> None:
    for bad, problem in ((~(np.isfinite(w_exp) & np.isfinite(w_imp) & np.isfinite(w)),
                          "a non-finite weight"),
                         (~(w > 0.0), "non-positive total weight"),
                         ((w_exp < 0.0) | (w_imp < 0.0), "a negative flow weight")):
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"edge ({nodes[a[k]]}, {nodes[b[k]]}) has {problem}")


def build_network(paired: PairedColumns, year: int, missing: str = "zero") -> AnnualTradeNetwork:
    """Build the annual network for ``year`` from the rows of that year in
    ingest.pair_columns' output.

    Pairs whose symmetrized weight is zero contribute no edge; a country
    left with no edges is absent from the node set.
    """
    lo = hi = 0
    if year in paired.years:
        k = paired.years.index(year)
        lo, hi = np.searchsorted(paired.year, [k, k + 1])
    w_exp, w_imp = _symmetrized(paired.flows[lo:hi], missing)
    keep = w_exp + w_imp != 0.0
    return AnnualTradeNetwork._from_indices(
        year, paired.codes, paired.a[lo:hi][keep], paired.b[lo:hi][keep],
        w_exp[keep], w_imp[keep])


def summarize(net: AnnualTradeNetwork) -> NetworkSummary:
    """Whole-network statistics: N, L, link density, trade volume figures."""
    n = net.n_nodes
    n_links = net.n_links
    total = float(np.cumsum(net.w)[-1])  # the sum in edge order, as sum() adds
    w_max = float(net.w.max())
    return NetworkSummary(
        year=net.year,
        n_nodes=n,
        n_links=n_links,
        rho=n_links / (n * (n - 1) / 2),
        total_trade=total,
        mean_weight=total / n_links,
        max_weight=w_max,
        max_weight_share=w_max / total,
    )


def snapshot_dumps(net: AnnualTradeNetwork) -> str:
    """Serialize a network to the canonical snapshot document.

    Edge weights use the shortest round-trip decimal form, so
    ``snapshot_loads(snapshot_dumps(net)) == net`` holds bit for bit and
    equal networks serialize to identical bytes.
    """
    buf = io.StringIO()
    _write_snapshot(buf, net, _edge_text(net))
    return buf.getvalue()


# The JSON types of a snapshot's edge endpoints and weights, and the problem
# a value of another type is reported as.
_CODE = ({str}, "country code {!r} is not a JSON string")
_WEIGHT = ({int, float}, "edge weight {!r} is not a JSON number")

_NODE_MISMATCH = "snapshot node list does not match edge endpoints"


def snapshot_loads(text: str) -> AnnualTradeNetwork:
    """Parse a snapshot document back into a network.

    The document is checked as CSV ingest checks its input: every edge is
    a canonical pair listed once, with finite non-negative flow weights and
    a positive total.  The year must be a JSON integer, every country code
    a JSON string and every weight a JSON number: a value of another JSON
    type is rejected, not converted.  The node list must hold the endpoint
    codes in increasing order, each once.  Edges out of (a, b) order are
    sorted.
    """
    # json.loads makes one list per edge, and every few hundred new lists
    # would start a pass of the cyclic garbage collector over the lists built
    # so far.  The document holds only lists, strs and numbers, so it can
    # form no reference cycle, and reference counting frees it.  The
    # collector resumes only once _snapshot_network has returned and the
    # document is freed, so no pass ever traverses it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _snapshot_network(text)
    finally:
        if collecting:
            gc.enable()


def _snapshot_network(text: str) -> AnnualTradeNetwork:
    """The body of snapshot_loads, which pauses the collector around it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid snapshot JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValidationError("not a trade-network snapshot document")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValidationError(f"unsupported snapshot version {doc.get('version')!r}")
    try:
        year = doc["year"]
        if type(year) is not int:
            raise ValueError(f"year {year!r} is not a JSON integer")
        entries = doc["edges"]
        if set(map(len, entries)) - {4}:
            raise ValueError("an edge entry is not [a, b, w_exp, w_imp]")
        a_codes = [entry[0] for entry in entries]
        b_codes = [entry[1] for entry in entries]
        w_exp = [entry[2] for entry in entries]
        w_imp = [entry[3] for entry in entries]
        for column, (types, problem) in zip((a_codes, b_codes, w_exp, w_imp),
                                            (_CODE, _CODE, _WEIGHT, _WEIGHT)):
            if not set(map(type, column)) <= types:
                raise ValueError(problem.format(next(v for v in column if type(v) not in types)))
        w_exp = np.array(w_exp, dtype=np.float64)
        w_imp = np.array(w_imp, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed snapshot document: {exc}") from None
    if not entries:
        raise EmptyNetworkError(f"no edges for year {year}")
    # The network keeps the document's own node strs, not the ones made for
    # the edge entries: those lie all through the decoded document, and
    # holding some of them would keep its memory from being handed back.
    nodes = doc.get("nodes")
    if type(nodes) is not list or not set(map(type, nodes)) <= {str} or (
            nodes != sorted(set(nodes))):
        raise ValidationError(_NODE_MISMATCH)
    nodes = tuple(nodes)
    try:
        a, b = _node_indices(nodes, a_codes, b_codes)
    except KeyError:
        raise ValidationError(_NODE_MISMATCH) from None
    net = AnnualTradeNetwork._from_indices(year, nodes, a, b, w_exp, w_imp)
    if net.n_nodes < len(nodes):
        raise ValidationError(_NODE_MISMATCH)  # a node that no edge joins
    return net


def save_snapshot(net: AnnualTradeNetwork, path) -> None:
    """Write the snapshot document of ``net`` to ``path``, atomically."""
    with _atomic_file(path) as fh:
        _write_snapshot(fh, net, _edge_text(net))


def load_snapshot(path) -> AnnualTradeNetwork:
    return snapshot_loads(_read_utf8(path))
