"""Weight-ordered link insertion and giant-component growth.

Starting from all nodes isolated, links are inserted one at a time in
descending (or ascending) weight order, ties broken by canonical pair
order, and the fractional size of the largest component is recorded after
every insertion.  Component tracking uses a disjoint-set forest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError
from .graph import AnnualTradeNetwork
from .distributions import linear_fit

ORDERS = ("descending", "ascending")


class UnionFind:
    """Disjoint sets over range(n) with union by size and path compression."""

    def __init__(self, n: int):
        self._parent = list(range(n))
        self._size = [1] * n

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the sets of a and b; returns the resulting set size."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return self._size[ra]
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return self._size[ra]

    def size(self, x: int) -> int:
        return self._size[self.find(x)]

    def largest_after_unions(self, a: list[int], b: list[int]) -> list[int]:
        """Union a[m] with b[m] for m = 0, 1, ... and return the largest set
        size after each union.

        Stops once one set holds every element, so the result is shorter
        than ``a`` when later unions cannot change it.  This is union() in
        a loop, inlined because percolation calls it once per link.
        """
        parent, size = self._parent, self._size
        n = len(parent)
        largest = max(size, default=0)
        out = []
        for x, y in zip(a, b):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            while parent[y] != y:
                parent[y] = parent[parent[y]]
                y = parent[y]
            if x != y:
                if size[x] < size[y]:
                    x, y = y, x
                parent[y] = x
                size[x] += size[y]
                if size[x] > largest:
                    largest = size[x]
            out.append(largest)
            if largest == n:
                break
        return out


@dataclass(frozen=True, eq=False)
class PercolationCurve:
    """(f, S_g/N) trajectory of ordered link insertion: after the m-th of L
    insertions, ``f[m-1] = m/L`` and ``giant[m-1]`` is the giant fraction."""

    order: str
    f: np.ndarray
    giant: np.ndarray

    @property
    def points(self) -> list[tuple[float, float]]:
        """(f, giant fraction) pairs as Python floats; the benchmark's tracer
        (perfbench/tracing.py) counts insertions by their number."""
        return list(zip(self.f.tolist(), self.giant.tolist()))


@dataclass(frozen=True)
class ExponentialFit:
    """Decay rate of 1 - S_g/N against f on a semi-log scale."""

    rate: float
    fit_range: tuple[float, float]
    r_squared: float


def percolate(net: AnnualTradeNetwork, order: str = "descending") -> PercolationCurve:
    """Insert links in weight order and track the giant component.

    Records (fraction of links inserted, giant fraction) after every
    insertion; the curve is deterministic because weight ties break on the
    canonical pair order.
    """
    if order not in ORDERS:
        raise DomainError(f"unknown order {order!r}; expected one of {ORDERS}")
    # A stable sort of edges held in (a, b) order breaks ties by (a, b).
    ranked = np.argsort(-net.w if order == "descending" else net.w, kind="stable")
    n = net.n_nodes
    n_links = net.n_links
    sizes = UnionFind(n).largest_after_unions(net.a[ranked].tolist(),
                                              net.b[ranked].tolist())
    giant = np.full(n_links, n)
    giant[:len(sizes)] = sizes
    return PercolationCurve(order=order, f=np.arange(1, n_links + 1) / n_links,
                            giant=giant / n)


def fit_exponential_approach(curve: PercolationCurve,
                             fit_range: tuple[float, float]) -> ExponentialFit:
    """Fit ``1 - S_g/N ~ exp(-rate * f)`` over in-range points.

    Uses least squares on (f, ln(1 - S_g/N)); points already at the fully
    connected value are excluded because the gap is zero there.
    """
    f_lo, f_hi = fit_range
    if not (f_lo < f_hi):
        raise DomainError("fit range must satisfy f_lo < f_hi")
    usable = (curve.f >= f_lo) & (curve.f <= f_hi) & (curve.giant < 1.0)
    xs = curve.f[usable]
    # math.log, not np.log: the two differ in the last bit on some inputs.
    # The gap takes at most N distinct values, so each is logged once.
    gaps, index = np.unique(1.0 - curve.giant[usable], return_inverse=True)
    ys = np.array([math.log(gap) for gap in gaps.tolist()])[index]
    if len(xs) < 3:
        raise InsufficientDataError(
            f"only {len(xs)} usable points inside ({f_lo:g}, {f_hi:g}); need 3")
    slope, _, _, r_squared = linear_fit(xs, ys)
    return ExponentialFit(rate=-slope, fit_range=(f_lo, f_hi), r_squared=r_squared)
