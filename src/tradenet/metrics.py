"""Per-node degree, strength and disparity, and disparity-vs-degree scaling.

Every node carries three partner counts: the full degree k and the export
and import degrees, which count partners with a strictly positive flow in
that direction.  Strength is the sum of the selected flow's weights and the
disparity Y is the sum of squared weight shares, so Y ranges from 1/k
(evenly spread trade) to 1 (one dominant partner).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import geometric_edges, linear_fit
from .errors import DomainError, InsufficientDataError
from .graph import AnnualTradeNetwork

FLOWS = ("total", "export", "import")


@dataclass(frozen=True)
class NodeMetrics:
    """Degrees, strength and disparity of one node.

    ``k``, ``k_exp`` and ``k_imp`` are always the total/export/import
    partner counts.  ``s`` and ``Y`` refer to the flow kind the metrics
    were computed for; ``Y`` is None when that flow has zero strength
    (degenerate node).
    """

    k: int
    k_exp: int
    k_imp: int
    s: float
    Y: float | None


@dataclass(frozen=True)
class LogBinSpec:
    """Logarithmic degree binning: bin count per decade and the minimum
    occupancy a bin needs to enter the exponent regression."""

    bins_per_decade: int = 8
    min_count: int = 3


@dataclass(frozen=True)
class DisparityCurve:
    """Binned mean of k*Y(k) against degree with its log-log slope."""

    points: list[tuple[float, float, int]]
    exponent: float
    exponent_stderr: float
    flow: str


@dataclass(frozen=True)
class NodeMetricColumns:
    """NodeMetrics of every node as arrays in node order.

    ``s`` is 0 and ``Y`` is NaN where the flow's strength is zero.
    """

    k: np.ndarray
    k_exp: np.ndarray
    k_imp: np.ndarray
    s: np.ndarray
    Y: np.ndarray

    def lists(self) -> tuple[list, list, list, list, list]:
        """The five columns as Python lists holding NodeMetrics values: a
        degenerate node's ``s`` is the int 0 and its ``Y`` is None."""
        s = self.s.tolist()
        y = self.Y.tolist()
        for i in np.flatnonzero(~(self.s > 0.0)).tolist():
            s[i] = 0
            y[i] = None
        return self.k.tolist(), self.k_exp.tolist(), self.k_imp.tolist(), s, y


def node_metrics(net: AnnualTradeNetwork, country: str, flow: str = "total") -> NodeMetrics:
    """Compute degrees, strength and disparity for one node.

    Degree and strength for the selected flow count only partners with a
    strictly positive weight of that kind.
    """
    _check_flow(flow)
    i = net.index(country)
    k, k_exp, k_imp, s, y = _columns(net, flow, i, i + 1).lists()
    return NodeMetrics(k=k[0], k_exp=k_exp[0], k_imp=k_imp[0], s=s[0], Y=y[0])


def node_metric_columns(net: AnnualTradeNetwork, flow: str = "total") -> NodeMetricColumns:
    """node_metrics of every node as columns, in node order."""
    _check_flow(flow)
    return _columns(net, flow, 0, net.n_nodes)


def all_node_metrics(net: AnnualTradeNetwork, flow: str = "total") -> dict[str, NodeMetrics]:
    """node_metrics for every node, keyed by country code."""
    return dict(zip(net.nodes, map(NodeMetrics, *node_metric_columns(net, flow).lists())))


def disparity_samples(net: AnnualTradeNetwork, flow: str = "total") -> list[tuple[int, float]]:
    """(degree, k*Y) samples for the selected flow, one per non-degenerate node."""
    k, ky = _disparity(node_metric_columns(net, flow), flow)
    return list(zip(k.tolist(), ky.tolist()))


def _check_flow(flow: str) -> None:
    if flow not in FLOWS:
        raise DomainError(f"unknown flow kind {flow!r}; expected one of {FLOWS}")


def _columns(net: AnnualTradeNetwork, flow: str, first: int, stop: int) -> NodeMetricColumns:
    """Metrics of nodes first..stop-1 from their CSR half-edges.

    Per node, the strength and the sum of squared shares add the partners'
    weights in partner order, as a loop over neighbors() does; the square
    is libm pow, as Python's ``** 2`` computes it.
    """
    adj = net.adjacency()
    lo, hi = adj.indptr[first], adj.indptr[stop]
    node = adj.node[lo:hi]
    edge = adj.edge[lo:hi]
    forward = node < adj.partner[lo:hi]  # the node is the edge's smaller code
    out = np.where(forward, net.w_exp[edge], net.w_imp[edge])
    inc = np.where(forward, net.w_imp[edge], net.w_exp[edge])
    node = node - first
    n = stop - first
    chosen = {"total": net.w[edge], "export": out, "import": inc}[flow]
    selected = chosen > 0.0
    owner = node[selected]
    weights = chosen[selected]
    # bincount returns ints when nothing is selected
    s = np.bincount(owner, weights=weights, minlength=n).astype(np.float64, copy=False)
    y = np.bincount(owner, weights=np.float_power(weights / s[owner], 2.0), minlength=n)
    y = np.where(s > 0.0, y, np.nan)
    return NodeMetricColumns(k=np.diff(adj.indptr[first:stop + 1]),
                             k_exp=np.bincount(node[out > 0.0], minlength=n),
                             k_imp=np.bincount(node[inc > 0.0], minlength=n),
                             s=s, Y=y)


def _disparity(cols: NodeMetricColumns, flow: str) -> tuple[np.ndarray, np.ndarray]:
    """Degree of the flow kind and k*Y of the non-degenerate nodes."""
    k = {"total": cols.k, "export": cols.k_exp, "import": cols.k_imp}[flow]
    keep = cols.s > 0.0
    return k[keep], k[keep] * cols.Y[keep]


def disparity_curve(nets, flow: str = "total",
                    binning: LogBinSpec = LogBinSpec()) -> DisparityCurve:
    """Pool (k, kY) samples over networks, log-bin by degree and fit the
    slope of log(mean kY) against log(bin center).

    Points cover every occupied bin; the regression uses only bins with at
    least ``binning.min_count`` samples.
    """
    _check_flow(flow)
    if binning.bins_per_decade < 1 or binning.min_count < 1:
        raise DomainError("invalid bin spec")
    pooled = [_disparity(node_metric_columns(net, flow), flow) for net in nets]
    if not sum(len(k) for k, _ in pooled):
        raise InsufficientDataError("no disparity samples in the given networks")
    ks = np.concatenate([k for k, _ in pooled]).astype(float)
    kys = np.concatenate([ky for _, ky in pooled])
    edges = geometric_edges(float(ks.min()), float(ks.max()), binning.bins_per_decade)
    idx = np.searchsorted(edges, ks, side="right") - 1
    counts = np.bincount(idx, minlength=len(edges) - 1)
    sums = np.bincount(idx, weights=kys, minlength=len(edges) - 1)
    centers = np.sqrt(edges[:-1] * edges[1:])
    occupied = counts > 0
    if int(occupied.sum()) < 3:
        raise InsufficientDataError(
            f"only {int(occupied.sum())} occupied degree bins; need 3")
    points = [(float(c), float(s / n), int(n))
              for c, s, n in zip(centers[occupied], sums[occupied], counts[occupied])]
    eligible = [(c, m) for c, m, n in points if n >= binning.min_count]
    if len(eligible) < 3:
        raise InsufficientDataError(
            f"only {len(eligible)} bins with >= {binning.min_count} samples; need 3")
    slope, _, stderr, _ = linear_fit(np.log([c for c, _ in eligible]),
                                     np.log([m for _, m in eligible]))
    return DisparityCurve(points=points, exponent=slope,
                          exponent_stderr=stderr, flow=flow)
