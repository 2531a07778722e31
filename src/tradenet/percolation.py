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


# The ranked edges are walked in blocks of _FIRST_BLOCK edges, doubling up to
# _LAST_BLOCK: the first edges nearly all join two sets, so the labels of a
# long block would soon be stale, and once a giant set has formed nearly none
# do, so a long block filters many edges per labelling.
_FIRST_BLOCK = 32
_LAST_BLOCK = 4096


def _largest_after_unions(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union a[m] with b[m] for m = 0, 1, ... in disjoint sets over range(n)
    (union by size, path halving) and return the largest set size after
    each union.

    Stops once one set holds every element, so the result is shorter than
    ``a`` when later unions cannot change it.

    The edges go in blocks.  Each element is labelled with its set's root
    when a block starts, by full path compression in numpy, and only the
    block's edges whose ends had different labels then go through the
    union loop: an edge inside one set cannot change a set's size.  A label
    is an ancestor of its element for the whole block, so a find starts
    there.
    """
    parent = list(range(n))
    size = [1] * n
    largest = 1
    out = np.empty(len(a), dtype=np.intp)
    start, block = 0, _FIRST_BLOCK
    while start < len(a):
        stop = min(start + block, len(a))
        root = np.array(parent)
        while not np.array_equal(up := root[root], root):
            root = up
        xs, ys = root[a[start:stop]], root[b[start:stop]]
        joining = np.flatnonzero(xs != ys)
        grown = []  # the largest set size after each joining edge
        for x, y in zip(xs[joining].tolist(), ys[joining].tolist()):
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
            grown.append(largest)
            if largest == n:
                stop = start + int(joining[len(grown) - 1]) + 1
                break
        sizes = out[start:stop]
        sizes[0] = out[start - 1] if start else 1
        sizes[1:] = 0
        sizes[joining[:len(grown)]] = grown
        np.maximum.accumulate(sizes, out=sizes)
        if largest == n:
            return out[:stop]
        start, block = stop, min(2 * block, _LAST_BLOCK)
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
    key = -net.w if order == "descending" else net.w
    ranked = np.argsort(key)
    ranked_key = key[ranked]
    if (ranked_key[1:] == ranked_key[:-1]).any():
        # A stable sort of edges held in (a, b) order breaks ties by (a, b).
        ranked = np.argsort(key, kind="stable")
    n = net.n_nodes
    n_links = net.n_links
    sizes = _largest_after_unions(n, net.a[ranked], net.b[ranked])
    giant = np.full(n_links, n)
    giant[:len(sizes)] = sizes
    return PercolationCurve(order=order, f=_link_fractions(n_links), giant=giant / n)


def _link_fractions(n_links: int) -> np.ndarray:
    """The fraction m/L of the links inserted after each insertion m."""
    return np.arange(1, n_links + 1) / n_links


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
