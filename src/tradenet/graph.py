"""Symmetrized annual trade networks and whole-network summary statistics.

Each unordered country pair (a, b) with a < b carries an export weight
(the averaged reports of the flow a -> b), an import weight (the averaged
reports of the flow b -> a), and their sum as the undirected link weight.
Weights are million USD stored as 64-bit floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

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


class AnnualTradeNetwork:
    """Immutable weighted undirected network for one year.

    ``edges`` maps canonical (a, b) pairs with a < b to EdgeWeights, in
    sorted key order; ``nodes`` is the sorted tuple of edge endpoints, so
    every node has degree >= 1.  Instances are treated as read-only.
    """

    __slots__ = ("year", "nodes", "edges", "_adj")

    def __init__(self, year: int, edges: Mapping[tuple[str, str], EdgeWeights]):
        if not edges:
            raise EmptyNetworkError(f"no edges for year {year}")
        canonical: dict[tuple[str, str], EdgeWeights] = {}
        adj: dict[str, dict[str, EdgeWeights]] = {}
        for (a, b), ew in sorted(edges.items()):
            if not a or not b or a >= b:
                raise ValidationError(f"edge key ({a!r}, {b!r}) is not a canonical pair")
            if not ew.w > 0.0:
                raise ValidationError(f"edge ({a}, {b}) has non-positive total weight")
            if ew.w_exp < 0.0 or ew.w_imp < 0.0:
                raise ValidationError(f"edge ({a}, {b}) has a negative flow weight")
            canonical[(a, b)] = ew
            adj.setdefault(a, {})[b] = ew
            adj.setdefault(b, {})[a] = ew
        self.year = year
        self.edges = canonical
        self.nodes = tuple(sorted(adj))
        self._adj = {c: dict(sorted(neigh.items())) for c, neigh in adj.items()}

    @classmethod
    def _from_canonical(cls, year: int, codes, a, b, w_exp, w_imp,
                        w) -> AnnualTradeNetwork:
        """Network from edge arrays that need no check and no sort.

        ``a`` and ``b`` index the sorted ``codes`` with ``a < b``, the
        edges are sorted by (a, b) and every ``w`` is > 0.
        """
        if not len(a):
            raise EmptyNetworkError(f"no edges for year {year}")
        net = cls.__new__(cls)
        net.year = year
        keys = zip([codes[i] for i in a.tolist()], [codes[i] for i in b.tolist()])
        net.edges = dict(zip(keys, map(EdgeWeights, w_exp.tolist(), w_imp.tolist(),
                                       w.tolist())))
        net.nodes = tuple(codes[i] for i in np.unique(np.concatenate([a, b])).tolist())
        # Edges in (a, b) order reach each node first from its smaller
        # neighbours in ascending order, then from its larger ones.
        adj: dict[str, dict[str, EdgeWeights]] = {c: {} for c in net.nodes}
        for (ca, cb), ew in net.edges.items():
            adj[ca][cb] = ew
            adj[cb][ca] = ew
        net._adj = adj
        return net

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.edges)

    def neighbors(self, country: str) -> dict[str, EdgeWeights]:
        """Partners of ``country`` mapped to edge weights, sorted by code."""
        try:
            return self._adj[country]
        except KeyError:
            raise NodeNotFoundError(f"{country!r} is not a node of the {self.year} network") from None

    def __eq__(self, other):
        if not isinstance(other, AnnualTradeNetwork):
            return NotImplemented
        return self.year == other.year and self.edges == other.edges

    def __repr__(self):
        return f"AnnualTradeNetwork(year={self.year}, N={self.n_nodes}, L={self.n_links})"


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
    edges = {(pf.country_a, pf.country_b): EdgeWeights(e, i, t)
             for pf, e, i, t in zip(pairs, w_exp.tolist(), w_imp.tolist(), w.tolist())
             if t != 0.0}
    return AnnualTradeNetwork(year, edges)


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
    weights = [ew.w for ew in net.edges.values()]
    n = net.n_nodes
    n_links = len(weights)
    total = sum(weights)
    w_max = max(weights)
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
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "year": net.year,
        "nodes": list(net.nodes),
        "edges": [[a, b, ew.w_exp, ew.w_imp] for (a, b), ew in net.edges.items()],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def snapshot_loads(text: str) -> AnnualTradeNetwork:
    """Parse a snapshot document back into a network."""
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
        edges = {}
        for entry in doc["edges"]:
            a, b, w_exp, w_imp = entry
            w_exp = float(w_exp)
            w_imp = float(w_imp)
            edges[(str(a), str(b))] = EdgeWeights(w_exp, w_imp, w_exp + w_imp)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed snapshot document: {exc}") from None
    net = AnnualTradeNetwork(year, edges)
    if list(net.nodes) != list(doc["nodes"]):
        raise ValidationError("snapshot node list does not match edge endpoints")
    return net


def save_snapshot(net: AnnualTradeNetwork, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(snapshot_dumps(net))


def load_snapshot(path) -> AnnualTradeNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return snapshot_loads(fh.read())
