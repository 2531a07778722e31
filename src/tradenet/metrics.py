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

from .distributions import linear_fit, log_histogram
from .errors import DomainError, InsufficientDataError
from .graph import AnnualTradeNetwork

FLOWS = ("total", "export", "import")


@dataclass(frozen=True)
class LogBinSpec:
    """Logarithmic degree binning: bin count per decade and the minimum
    occupancy a bin needs to enter the exponent regression, both at least 1."""

    bins_per_decade: int = 8
    min_count: int = 3

    def __post_init__(self):
        if self.bins_per_decade < 1 or self.min_count < 1:
            raise DomainError(f"invalid bin spec: bins per decade ({self.bins_per_decade}) "
                              f"and minimum count ({self.min_count}) must be at least 1")


@dataclass(frozen=True)
class DisparityCurve:
    """Binned mean of k*Y(k) against degree with its log-log slope."""

    points: list[tuple[float, float, int]]
    exponent: float
    exponent_stderr: float
    flow: str


@dataclass(frozen=True)
class NodeMetricColumns:
    """Degrees, strength and disparity of every node as arrays in node order.

    ``k``, ``k_exp`` and ``k_imp`` are always the total, export and import
    partner counts.  ``s`` and ``Y`` refer to the flow kind the metrics were
    computed for; ``s`` is 0 and ``Y`` is NaN where that flow's strength is
    zero (a degenerate node).
    """

    k: np.ndarray
    k_exp: np.ndarray
    k_imp: np.ndarray
    s: np.ndarray
    Y: np.ndarray

    def lists(self) -> tuple[list, list, list, list, list]:
        """The five columns as Python lists: a degenerate node's ``s`` is the
        int 0 and its ``Y`` is None."""
        s = self.s.tolist()
        y = self.Y.tolist()
        for i in np.flatnonzero(~(self.s > 0.0)).tolist():
            s[i] = 0
            y[i] = None
        return self.k.tolist(), self.k_exp.tolist(), self.k_imp.tolist(), s, y


def node_metric_columns(net: AnnualTradeNetwork, flow: str = "total") -> NodeMetricColumns:
    """Degrees, strength and disparity of every node, in node order.

    Degree and strength for the selected flow count only partners with a
    strictly positive weight of that kind.  Computed once per network and
    flow and cached on the network, so the arrays are read-only.
    """
    _check_flow(flow)
    cols = net._metric_columns.get(flow)
    if cols is None:
        cols = _columns(net, flow)
        for column in (cols.k, cols.k_exp, cols.k_imp, cols.s, cols.Y):
            column.flags.writeable = False
        net._metric_columns[flow] = cols
    return cols


def _check_flow(flow: str) -> None:
    if flow not in FLOWS:
        raise DomainError(f"unknown flow kind {flow!r}; expected one of {FLOWS}")


def _columns(net: AnnualTradeNetwork, flow: str) -> NodeMetricColumns:
    """Metrics of every node from its half-edges.

    Per node, the strength and the sum of squared shares add the partners'
    weights in partner order, as a loop over the sorted partners does; the
    square is libm pow, as Python's ``** 2`` computes it.  The partner
    counts do not depend on the order, so only the selected flow's
    half-edges are sorted.
    """
    n = net.n_nodes
    # Edge e exports w_exp and imports w_imp seen from a, and the other way
    # round seen from b.
    k_exp = (np.bincount(net.a[net.w_exp > 0.0], minlength=n)
             + np.bincount(net.b[net.w_imp > 0.0], minlength=n))
    k_imp = (np.bincount(net.a[net.w_imp > 0.0], minlength=n)
             + np.bincount(net.b[net.w_exp > 0.0], minlength=n))
    from_a, from_b = {"total": (net.w, net.w), "export": (net.w_exp, net.w_imp),
                      "import": (net.w_imp, net.w_exp)}[flow]
    weights = np.concatenate([from_a, from_b])  # half-edge e + n_links is edge e seen from b
    selected = weights > 0.0
    owner = np.concatenate([net.a, net.b])[selected]
    # Each (node, partner) pair is one half-edge, so any sort of this unique
    # key gives the (node, partner) order.
    order = np.argsort(owner.astype(np.int64) * n + np.concatenate([net.b, net.a])[selected])
    owner = owner[order]
    weights = weights[selected][order]
    # bincount returns ints when nothing is selected
    s = np.bincount(owner, weights=weights, minlength=n).astype(np.float64, copy=False)
    y = np.bincount(owner, weights=np.float_power(weights / s[owner], 2.0), minlength=n)
    y = np.where(s > 0.0, y, np.nan)
    return NodeMetricColumns(k=net.degrees, k_exp=k_exp, k_imp=k_imp, s=s, Y=y)


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
    pooled = [_disparity(node_metric_columns(net, flow), flow) for net in nets]
    if not sum(len(k) for k, _ in pooled):
        raise InsufficientDataError("no disparity samples in the given networks")
    ks = np.concatenate([k for k, _ in pooled]).astype(float)
    kys = np.concatenate([ky for _, ky in pooled])
    hist = log_histogram(ks, binning.bins_per_decade)
    counts, centers = hist.counts, hist.centers
    sums = np.bincount(np.searchsorted(hist.bin_edges, ks, side="right") - 1, weights=kys,
                       minlength=len(counts))
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
