"""Symmetrized annual trade networks and whole-network summary statistics.

Each unordered country pair (a, b) with a < b carries an export weight
(the averaged reports of the flow a -> b), an import weight (the averaged
reports of the flow b -> a), and their sum as the undirected link weight.
Weights are million USD stored as 64-bit floats.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (DomainError, EmptyNetworkError, NodeNotFoundError,
                     ParseError, ValidationError)
from .ingest import FLOW_SLOTS, PairedColumns, PairedFlows

MISSING_FLOW_POLICIES = ("zero", "copy")

SNAPSHOT_FORMAT = "trade-network-snapshot"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class EdgeWeights:
    """Link weights of one edge; ``w`` is always ``w_exp + w_imp``."""

    w_exp: float
    w_imp: float
    w: float


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


def symmetrize(pf: PairedFlows, missing: str = "zero") -> EdgeWeights | None:
    """Average the two reports of each directed flow into link weights.

    The export weight along (a, b) averages a's reported export to b with
    b's reported import from a; the import weight averages the two reports
    of the opposite flow.  Under the default ``zero`` policy a missing
    report enters the average as 0, so a one-sided report is halved; under
    ``copy`` the present report stands in for the missing one.  Returns
    None when both weights come out zero (no edge).
    """
    w_exp, w_imp = _symmetrized(_flow_matrix([pf]), missing)
    w = w_exp + w_imp
    if w[0] == 0.0:
        return None
    return EdgeWeights(float(w_exp[0]), float(w_imp[0]), float(w[0]))


def _symmetrized(flows: np.ndarray, missing: str) -> tuple[np.ndarray, np.ndarray]:
    """Export and import weights of pairs from their flow slots.

    ``flows`` has one row per pair and one column per FLOW_SLOTS entry; a
    value that is not > 0 (NaN, zero) counts as not reported.
    """
    if missing not in MISSING_FLOW_POLICIES:
        raise DomainError(
            f"unknown missing-flow policy {missing!r}; expected one of {MISSING_FLOW_POLICIES}")
    present = flows > 0
    exp_ab, imp_ab, exp_ba, imp_ba = np.where(present, flows, 0.0).T
    has_exp_ab, has_imp_ab, has_exp_ba, has_imp_ba = present.T
    return (_average(exp_ab, imp_ba, has_exp_ab & has_imp_ba, missing),
            _average(exp_ba, imp_ab, has_exp_ba & has_imp_ab, missing))


def _flow_matrix(pairs: list[PairedFlows]) -> np.ndarray:
    """The pairs' flows in FLOW_SLOTS order, NaN for None."""
    return np.array([[pf.exp_ab, pf.imp_ab, pf.exp_ba, pf.imp_ba] for pf in pairs],
                    dtype=np.float64).reshape(len(pairs), len(FLOW_SLOTS))


def _average(reported, mirrored, both, missing):
    total = reported + mirrored  # an absent report is 0 here
    if missing == "zero":
        return total / 2.0
    return np.where(both, total / 2.0, total)


class Adjacency(NamedTuple):
    """CSR adjacency of a network: the half-edges of node ``i`` are
    ``indptr[i]:indptr[i + 1]``, sorted by partner.  ``node``, ``partner``
    and ``edge`` give each half-edge's node, its partner and the index of
    its edge in the network's edge arrays."""

    indptr: np.ndarray
    node: np.ndarray
    partner: np.ndarray
    edge: np.ndarray


class AnnualTradeNetwork:
    """Immutable weighted undirected network for one year.

    ``nodes`` is the sorted tuple of country codes, each an endpoint of at
    least one edge.  Edge ``e`` joins ``nodes[a[e]]`` and ``nodes[b[e]]``
    with ``a[e] < b[e]``; the int32 arrays ``a`` and ``b`` are sorted by
    (a, b), and the float64 arrays ``w_exp``, ``w_imp`` and ``w`` hold its
    weights.  Because the codes are sorted, comparing two node indices
    compares the codes.  ``edges`` and ``neighbors`` are dict views built on
    request.  Instances and their arrays are treated as read-only.
    """

    __slots__ = ("year", "nodes", "a", "b", "w_exp", "w_imp", "w", "_adjacency",
                 "_edges")

    def __init__(self, year: int, edges: Mapping[tuple[str, str], EdgeWeights]):
        keys = list(edges)
        values = list(edges.values())
        self._set(year, *_validated(year, [a for a, _ in keys], [b for _, b in keys],
                                    [ew.w_exp for ew in values],
                                    [ew.w_imp for ew in values], [ew.w for ew in values]))

    @classmethod
    def _from_lists(cls, year: int, a_codes: list, b_codes: list, w_exp, w_imp,
                    w) -> AnnualTradeNetwork:
        """Network from unsorted edge lists, checked as the constructor checks."""
        net = cls.__new__(cls)
        net._set(year, *_validated(year, a_codes, b_codes, w_exp, w_imp, w))
        return net

    def _set(self, year, nodes, a, b, w_exp, w_imp, w) -> None:
        self.year = year
        self.nodes = nodes
        self.a = a
        self.b = b
        self.w_exp = w_exp
        self.w_imp = w_imp
        self.w = w
        self._adjacency = None
        self._edges = None

    @classmethod
    def _from_canonical(cls, year: int, codes, a, b, w_exp, w_imp,
                        w) -> AnnualTradeNetwork:
        """Network from edge arrays that need no sort.

        ``a`` and ``b`` index the sorted ``codes`` with ``a < b``, the
        edges are sorted by (a, b) and no pair repeats.
        """
        if not len(a):
            raise EmptyNetworkError(f"no edges for year {year}")
        used = np.unique(np.concatenate([a, b]))
        nodes = tuple(codes[i] for i in used.tolist())
        a = np.searchsorted(used, a).astype(np.int32)
        b = np.searchsorted(used, b).astype(np.int32)
        _check_weights(nodes, a, b, w_exp, w_imp, w)
        net = cls.__new__(cls)
        net._set(year, nodes, a, b, w_exp, w_imp, w)
        return net

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.w)

    def adjacency(self) -> Adjacency:
        """The CSR adjacency, built on the first call."""
        if self._adjacency is None:
            n_links = len(self.w)
            node = np.concatenate([self.a, self.b])
            partner = np.concatenate([self.b, self.a])
            order = np.lexsort((partner, node))
            indptr = np.zeros(self.n_nodes + 1, dtype=np.intp)
            np.cumsum(np.bincount(node, minlength=self.n_nodes), out=indptr[1:])
            self._adjacency = Adjacency(indptr, node[order], partner[order],
                                        (order % n_links).astype(np.int32))
        return self._adjacency

    @property
    def degrees(self) -> np.ndarray:
        """Partner count of every node, in node order."""
        return np.diff(self.adjacency().indptr)

    def index(self, country: str) -> int:
        """Position of ``country`` in ``nodes``."""
        i = bisect.bisect_left(self.nodes, country)
        if i == len(self.nodes) or self.nodes[i] != country:
            raise NodeNotFoundError(f"{country!r} is not a node of the {self.year} network")
        return i

    @property
    def edges(self) -> dict[tuple[str, str], EdgeWeights]:
        """Canonical (a, b) pairs mapped to EdgeWeights, in sorted key order."""
        if self._edges is None:
            nodes = self.nodes
            keys = zip([nodes[i] for i in self.a.tolist()],
                       [nodes[i] for i in self.b.tolist()])
            self._edges = dict(zip(keys, map(EdgeWeights, self.w_exp.tolist(),
                                             self.w_imp.tolist(), self.w.tolist())))
        return self._edges

    def neighbors(self, country: str) -> dict[str, EdgeWeights]:
        """Partners of ``country`` mapped to edge weights, sorted by code."""
        i = self.index(country)
        adj = self.adjacency()
        lo, hi = adj.indptr[i], adj.indptr[i + 1]
        e = adj.edge[lo:hi]
        return dict(zip([self.nodes[p] for p in adj.partner[lo:hi].tolist()],
                        map(EdgeWeights, self.w_exp[e].tolist(), self.w_imp[e].tolist(),
                            self.w[e].tolist())))

    def __eq__(self, other):
        if not isinstance(other, AnnualTradeNetwork):
            return NotImplemented
        return (self.year == other.year and self.nodes == other.nodes
                and all(np.array_equal(getattr(self, f), getattr(other, f))
                        for f in ("a", "b", "w_exp", "w_imp", "w")))

    def __repr__(self):
        return f"AnnualTradeNetwork(year={self.year}, N={self.n_nodes}, L={self.n_links})"


def _validated(year, a_codes: list, b_codes: list, w_exp, w_imp, w):
    """Nodes and canonical edge arrays from unsorted edge lists.

    Raises EmptyNetworkError for no edges and ValidationError for a pair
    that is not canonical or repeats, or for weights that are not finite,
    negative or sum to a non-positive total.
    """
    if not a_codes:
        raise EmptyNetworkError(f"no edges for year {year}")
    nodes = tuple(sorted(set(a_codes).union(b_codes)))
    position = {c: i for i, c in enumerate(nodes)}
    a = np.fromiter(map(position.__getitem__, a_codes), np.int32, len(a_codes))
    b = np.fromiter(map(position.__getitem__, b_codes), np.int32, len(b_codes))
    bad = (a >= b) | ((a == 0) & (nodes[0] == ""))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(
            f"edge key ({a_codes[k]!r}, {b_codes[k]!r}) is not a canonical pair")
    order = np.argsort(a.astype(np.int64) * len(nodes) + b, kind="stable")
    a, b = a[order], b[order]
    repeated = (a[1:] == a[:-1]) & (b[1:] == b[:-1])
    if repeated.any():
        k = int(np.argmax(repeated))
        raise ValidationError(f"duplicate edge ({nodes[a[k]]}, {nodes[b[k]]})")
    w_exp, w_imp, w = (np.asarray(x, dtype=np.float64)[order] for x in (w_exp, w_imp, w))
    _check_weights(nodes, a, b, w_exp, w_imp, w)
    return nodes, a, b, w_exp, w_imp, w


def _check_weights(nodes, a, b, w_exp, w_imp, w) -> None:
    for bad, problem in ((~(np.isfinite(w_exp) & np.isfinite(w_imp) & np.isfinite(w)),
                          "a non-finite weight"),
                         (~(w > 0.0), "non-positive total weight"),
                         ((w_exp < 0.0) | (w_imp < 0.0), "a negative flow weight")):
        if bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(f"edge ({nodes[a[k]]}, {nodes[b[k]]}) has {problem}")


def build_network(pairs: Iterable[PairedFlows] | PairedColumns, year: int,
                  missing: str = "zero") -> AnnualTradeNetwork:
    """Build the annual network for ``year``.

    ``pairs`` is either one PairedFlows of that year per unordered pair, or
    the output of ingest.pair_columns, whose rows of that year are used.
    Pairs whose symmetrized weight is zero contribute no edge; a country
    left with no edges is absent from the node set.
    """
    if isinstance(pairs, PairedColumns):
        return _network_from_columns(pairs, year, missing)
    pairs = list(pairs)
    seen: set[tuple[str, str]] = set()
    for pf in pairs:
        if pf.year != year:
            raise ValidationError(f"pair for year {pf.year} passed to build for {year}")
        key = (pf.country_a, pf.country_b)
        if key in seen:
            raise ValidationError(f"duplicate pair {key} for year {year}")
        seen.add(key)
    w_exp, w_imp = _symmetrized(_flow_matrix(pairs), missing)
    w = w_exp + w_imp
    keep = w != 0.0
    kept = [pf for pf, k in zip(pairs, keep.tolist()) if k]
    return AnnualTradeNetwork._from_lists(year, [pf.country_a for pf in kept],
                                          [pf.country_b for pf in kept],
                                          w_exp[keep], w_imp[keep], w[keep])


def _network_from_columns(paired: PairedColumns, year: int,
                          missing: str) -> AnnualTradeNetwork:
    lo = hi = 0
    if year in paired.years:
        k = paired.years.index(year)
        lo, hi = np.searchsorted(paired.year, [k, k + 1])
    w_exp, w_imp = _symmetrized(paired.flows[lo:hi], missing)
    w = w_exp + w_imp
    keep = w != 0.0
    return AnnualTradeNetwork._from_canonical(
        year, paired.codes, paired.a[lo:hi][keep], paired.b[lo:hi][keep],
        w_exp[keep], w_imp[keep], w[keep])


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


def network_to_pairs(net: AnnualTradeNetwork) -> list[PairedFlows]:
    """Consistent double-reported PairedFlows that rebuild ``net`` exactly.

    Both countries report each flow identically, so symmetrization averages
    two equal values and reproduces every weight bit for bit.  Zero flow
    weights become missing reports, matching the zero-as-missing convention.
    """
    pairs = []
    for (a, b), ew in net.edges.items():
        exp_ab = ew.w_exp or None
        imp_ab = ew.w_imp or None
        pairs.append(PairedFlows(net.year, a, b,
                                 exp_ab=exp_ab, imp_ab=imp_ab,
                                 exp_ba=imp_ab, imp_ba=exp_ab))
    return pairs


def snapshot_dumps(net: AnnualTradeNetwork) -> str:
    """Serialize a network to the canonical snapshot document.

    Edge weights use the shortest round-trip decimal form, so
    ``snapshot_loads(snapshot_dumps(net)) == net`` holds bit for bit and
    equal networks serialize to identical bytes.
    """
    nodes = net.nodes
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "year": net.year,
        "nodes": list(nodes),
        "edges": list(map(list, zip([nodes[i] for i in net.a.tolist()],
                                    [nodes[i] for i in net.b.tolist()],
                                    net.w_exp.tolist(), net.w_imp.tolist()))),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def snapshot_loads(text: str) -> AnnualTradeNetwork:
    """Parse a snapshot document back into a network.

    The document is checked as CSV ingest checks its input: every edge is
    a canonical pair listed once, with finite non-negative flow weights and
    a positive total.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid snapshot JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValidationError("not a trade-network snapshot document")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise ValidationError(f"unsupported snapshot version {doc.get('version')!r}")
    try:
        year = int(doc["year"])
        entries = doc["edges"]
        if set(map(len, entries)) - {4}:
            raise ValueError("an edge entry is not [a, b, w_exp, w_imp]")
        a, b, w_exp, w_imp = zip(*entries) if entries else ((),) * 4
        w_exp = np.array(w_exp, dtype=np.float64)
        w_imp = np.array(w_imp, dtype=np.float64)
        if w_exp.ndim != 1 or w_imp.ndim != 1:
            raise ValueError("edge weights must be numbers")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed snapshot document: {exc}") from None
    with np.errstate(invalid="ignore"):  # inf + -inf: rejected as non-finite below
        w = w_exp + w_imp
    net = AnnualTradeNetwork._from_lists(year, list(map(str, a)), list(map(str, b)),
                                         w_exp, w_imp, w)
    if list(net.nodes) != doc.get("nodes"):
        raise ValidationError("snapshot node list does not match edge endpoints")
    return net


def save_snapshot(net: AnnualTradeNetwork, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(snapshot_dumps(net))


def load_snapshot(path) -> AnnualTradeNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return snapshot_loads(fh.read())
