"""Strength-ordered rich-club analysis.

The club at strength threshold s is the set of countries whose strength is
at least s.  Walking the thresholds through the sorted strength sequence
gives the curve of f_w (the fraction of world trade the club keeps among
its members) against the weakest member's fractional strength, and the
rich-club size at a trade threshold is the smallest such club whose
internal trade reaches that fraction of the total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graph import AnnualTradeNetwork
from .metrics import node_metric_columns

#: Fraction of world trade that the rich club keeps among its members.
CLUB_THRESHOLD = 0.5


@dataclass(frozen=True)
class RichClubCurve:
    """Points are (s/s_max of the weakest member, f_w, club size), from the
    full node set down to the single strongest node."""

    points: list[tuple[float, float, int]]
    s_max: float


def rich_club_curve(net: AnnualTradeNetwork) -> RichClubCurve:
    """Compute f_w for every strength-threshold club.

    Nodes are ranked by ascending strength (ties by country code).  The
    internal trade of each suffix is accumulated from the strongest node
    downwards, adding each edge when its second endpoint joins; the first
    point (full set) is exactly 1 and the last (single node) exactly 0,
    and the sequence is non-increasing.
    """
    strength = node_metric_columns(net, "total").s
    n = net.n_nodes
    seq = np.argsort(strength, kind="stable")  # node order breaks ties by code
    rank = np.empty(n, dtype=np.intp)
    rank[seq] = np.arange(n)
    # Walking from the strongest node down, an edge joins the club together
    # with its weaker endpoint, and the edges one node brings in come in
    # partner-code order.  One running sum in that walk order gives every
    # club's internal trade.  No two edges share a (joins, partner) pair, so
    # any sort of the unique key below gives that order.
    joins = np.minimum(rank[net.a], rank[net.b])
    partner = np.where(rank[net.a] > rank[net.b], net.a, net.b)
    walk = np.argsort((n - 1 - joins) * n + partner)
    internal = np.concatenate(([0.0], np.cumsum(net.w[walk])))
    added = np.cumsum(np.bincount(joins, minlength=n)[::-1])[::-1]  # edges in suffix i
    suffix_internal = internal[added]
    s_max = strength[seq[-1]]
    points = zip((strength[seq] / s_max).tolist(),
                 (suffix_internal / suffix_internal[0]).tolist(),
                 range(n, 0, -1))
    return RichClubCurve(points=list(points), s_max=float(s_max))


def rich_club_size(curve: RichClubCurve, net: AnnualTradeNetwork,
                   threshold: float = CLUB_THRESHOLD) -> tuple[int, float]:
    """Smallest strength-ordered club whose internal trade is at least
    ``threshold`` of the total; returns (club size, club size / N)."""
    if not 0.0 < threshold < 1.0:
        raise DomainError("threshold must lie strictly between 0 and 1")
    club_size = net.n_nodes
    for _, f_w, size in curve.points:
        if f_w >= threshold:
            club_size = size
        else:
            break
    return club_size, club_size / net.n_nodes
