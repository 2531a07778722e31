"""Weight and degree distribution estimation and fitting.

Conventions used throughout:

* Log-binned histograms use geometric bin edges ``10**(j / bins_per_decade)``
  anchored on the decade grid, half-open ``[e_j, e_{j+1})`` bins, and report
  probability density per unit x, so density times linear bin width sums
  to 1 over occupied bins.
* All power-law style exponents come from ordinary least squares on log-log
  axes; slope standard errors assume independent homoscedastic residuals.
* The log-normal scale ``w0`` is ``exp(mean(ln w))`` and ``sigma`` the
  population (1/n) standard deviation of ``ln w``.
* Degree survival is inclusive: ``P(k)`` is the fraction of nodes with
  degree >= k, so the survival at the smallest degree is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (DegenerateDataError, DomainError, EmptyInputError,
                     InsufficientDataError)

#: Geometric bins per decade of a weight histogram.
BINS_PER_DECADE = 10
#: Width in decades of the default power-law fit window.
FIT_DECADES = 2.5
#: ln-space bin width ln(10)/9 ~= 0.256 for the collapse histogram.
COLLAPSE_BINS_PER_DECADE = 9
#: Half-width in sigmas of the central region that collapse_mse scores.
COLLAPSE_WINDOW = 2.0


@dataclass(frozen=True)
class LogHistogram:
    """Geometrically binned density estimate of a positive sample."""

    bin_edges: np.ndarray
    densities: np.ndarray
    counts: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        """Geometric bin centers."""
        return np.sqrt(self.bin_edges[:-1] * self.bin_edges[1:])


@dataclass(frozen=True)
class PowerLawFit:
    tau: float
    tau_stderr: float
    fit_range: tuple[float, float]
    r_squared: float


@dataclass(frozen=True)
class LogNormalFit:
    w0: float
    sigma: float
    collapse_mse: float
    collapse: list[tuple[float, float]]


@dataclass(frozen=True)
class DegreeDistFit:
    survival: list[tuple[int, float]]
    gamma: float
    fit_range: tuple[float, float]


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    prefactor: float
    points: tuple[tuple[float, float], ...]


def geometric_edges(vmin: float, vmax: float, bins_per_decade: int) -> np.ndarray:
    """Geometric bin edges ``10**(j/bpd)`` covering [vmin, vmax].

    The grid is anchored at integer multiples of the decade fraction, the
    first edge is the largest grid point <= vmin and the last the smallest
    grid point > vmax, so every value lands in a half-open bin.
    """
    if not (vmin > 0 and math.isfinite(vmin) and math.isfinite(vmax)):
        raise DomainError("bin range must be positive and finite")
    if vmax < vmin:
        raise DomainError("vmax must be >= vmin")
    if bins_per_decade < 1:
        raise DomainError("bins_per_decade must be >= 1")
    lo = math.floor(bins_per_decade * math.log10(vmin))
    while 10.0 ** (lo / bins_per_decade) > vmin:
        lo -= 1
    while 10.0 ** ((lo + 1) / bins_per_decade) <= vmin:
        lo += 1
    hi = math.ceil(bins_per_decade * math.log10(vmax))
    while 10.0 ** (hi / bins_per_decade) <= vmax:
        hi += 1
    while hi > lo + 1 and 10.0 ** ((hi - 1) / bins_per_decade) > vmax:
        hi -= 1
    return np.array([10.0 ** (j / bins_per_decade) for j in range(lo, hi + 1)])


def linear_fit(x, y) -> tuple[float, float, float, float]:
    """Ordinary least squares ``y = intercept + slope * x``.

    Returns (slope, intercept, slope_stderr, r_squared).  A perfectly flat
    target (zero total variance) is reported as r_squared = 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2:
        raise InsufficientDataError("need at least 2 points for a line fit")
    # Products summed by numpy, not np.dot: BLAS dot products round
    # differently with the CPU kernel and the thread count.
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float((dx * dx).sum())
    if sxx == 0.0:
        raise DomainError("x values are all identical")
    slope = float((dx * dy).sum()) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (intercept + slope * x)
    ssr = float((resid * resid).sum())
    sst = float((dy * dy).sum())
    r_squared = 1.0 - ssr / sst if sst > 0.0 else 1.0
    stderr = math.sqrt(max(ssr, 0.0) / (n - 2) / sxx) if n > 2 else 0.0
    return slope, intercept, stderr, r_squared


def _positive_sample(values, empty: str, name: str = "weights") -> np.ndarray:
    """``values`` as a float array, checked to be non-empty, positive and finite."""
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
    if arr.size == 0:
        raise EmptyInputError(empty)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} must be positive and finite")
    return arr


def log_histogram(values, bins_per_decade: int = BINS_PER_DECADE) -> LogHistogram:
    """Density estimate of a positive sample on geometric bins.

    Densities are per unit x and integrate to 1 over the occupied bins.
    """
    arr = _positive_sample(values, "no values to histogram", "histogram values")
    edges = geometric_edges(float(arr.min()), float(arr.max()), bins_per_decade)
    idx = np.searchsorted(edges, arr, side="right") - 1
    counts = np.bincount(idx, minlength=len(edges) - 1)
    densities = counts / (arr.size * np.diff(edges))
    return LogHistogram(edges, densities, counts)


def intermediate_range(hist: LogHistogram, decades: float = FIT_DECADES) -> tuple[float, float]:
    """Default power-law fit window: ``decades`` wide, centered on the
    count-weighted geometric mean of the histogrammed sample."""
    occupied = hist.counts > 0
    center = float(np.average(np.log10(hist.centers[occupied]),
                              weights=hist.counts[occupied]))
    half = decades / 2.0
    try:
        hi = 10.0 ** (center + half)
    except OverflowError:  # a window wider than the float range is open above
        hi = math.inf
    return 10.0 ** (center - half), hi


def fit_power_law(hist: LogHistogram, fit_range: tuple[float, float]) -> PowerLawFit:
    """Estimate ``Prob(w) ~ w**-tau`` over the occupied bins whose centers
    fall inside ``fit_range``, by least squares on log-log axes."""
    w_lo, w_hi = fit_range
    if not (0.0 < w_lo < w_hi):
        raise DomainError("fit range must satisfy 0 < w_lo < w_hi")
    centers = hist.centers
    mask = (hist.counts > 0) & (centers >= w_lo) & (centers <= w_hi)
    if int(mask.sum()) < 3:
        raise InsufficientDataError(
            f"only {int(mask.sum())} occupied bins inside ({w_lo:g}, {w_hi:g}); need 3")
    slope, _, stderr, r_squared = linear_fit(np.log(centers[mask]),
                                             np.log(hist.densities[mask]))
    return PowerLawFit(tau=-slope, tau_stderr=stderr, fit_range=(w_lo, w_hi), r_squared=r_squared)


def fit_lognormal(weights, bins_per_decade: int = COLLAPSE_BINS_PER_DECADE,
                  central_sigmas: float = COLLAPSE_WINDOW) -> LogNormalFit:
    """Fit a log-normal by moments of ln(w) and score the scaling collapse.

    ``collapse`` holds the collapse_transform points, ``collapse_mse`` their
    mean squared deviation from the universal parabola y = x**2 over the
    central region ``|x| <= central_sigmas * sigma`` (the extremes are known
    to stray).
    """
    arr = _positive_sample(weights, "no weights to fit")
    logs = np.log(arr)
    w0 = math.exp(float(logs.mean()))
    sigma = float(logs.std())
    if sigma == 0.0:
        raise DegenerateDataError("all weights identical: sigma = 0, collapse undefined")
    points = collapse_transform(arr, w0, sigma, bins_per_decade)
    xs, ys = np.array(points).T
    central = np.abs(xs) <= central_sigmas * sigma
    if not central.any():
        central = np.abs(xs) == np.abs(xs).min()
    dev = ys[central] - xs[central] ** 2
    return LogNormalFit(w0=w0, sigma=sigma, collapse_mse=float(np.mean(dev**2)), collapse=points)


def collapse_transform(weights, w0: float, sigma: float,
                       bins_per_decade: int = COLLAPSE_BINS_PER_DECADE) -> list[tuple[float, float]]:
    """Histogram ln(w) and map the density onto the log-normal parabola.

    Bins are uniform in ln(w) (width ln(10)/bins_per_decade, anchored at 0).
    Returns (x, y) pairs at occupied bin centers with x = ln(center/w0) and
    y = -2 sigma^2 ln(density * sqrt(2 pi sigma^2)); for exactly log-normal
    data y = x**2.  The density here is of ln(w), i.e. w * Prob(w).
    """
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    if bins_per_decade < 1:
        raise DomainError("bins_per_decade must be >= 1")
    arr = _positive_sample(weights, "no weights to transform")
    logs = np.log(arr)
    width = math.log(10.0) / bins_per_decade
    j_lo = math.floor(float(logs.min()) / width)
    j_hi = math.floor(float(logs.max()) / width) + 1
    idx = np.clip(np.floor(logs / width).astype(int) - j_lo, 0, j_hi - j_lo - 1)
    counts = np.bincount(idx, minlength=j_hi - j_lo)
    density = counts / (arr.size * width)
    ln_centers = (np.arange(j_lo, j_hi) + 0.5) * width
    return collapse_from_log_density(ln_centers, density, w0, sigma)


def collapse_from_log_density(ln_centers, densities, w0: float,
                              sigma: float) -> list[tuple[float, float]]:
    """Apply the collapse map to an already-estimated density of ln(w).

    Points with zero density are omitted.
    """
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    if w0 <= 0.0:
        raise DomainError("w0 must be positive")
    scale = math.sqrt(2.0 * math.pi * sigma**2)
    ln_w0 = math.log(w0)
    out = []
    for center, dens in zip(ln_centers, densities):
        if dens > 0.0:
            x = center - ln_w0
            y = -2.0 * sigma**2 * math.log(dens * scale)
            out.append((float(x), float(y)))
    return out


def degree_survival(degrees: Iterable[int]) -> list[tuple[int, float]]:
    """Inclusive survival function of a degree sample at observed degrees."""
    sample = degrees if isinstance(degrees, np.ndarray) else list(degrees)
    ks, counts = np.unique(np.asarray(sample, dtype=int), return_counts=True)
    if ks.size == 0:
        raise EmptyInputError("no degrees")
    total = counts.sum()
    above = total - np.concatenate(([0], np.cumsum(counts)[:-1]))
    return [(int(k), float(c) / total) for k, c in zip(ks, above)]


def degree_distribution_from_degrees(degrees, fit_range: tuple[float, float]) -> DegreeDistFit:
    """Survival function of a pooled degree sample plus the tail exponent.

    ``gamma`` comes from ``P(k) ~ k**(1 - gamma)``, i.e. 1 minus the
    log-log slope of the survival over degrees inside ``fit_range``.
    """
    k_lo, k_hi = fit_range
    if not (0 < k_lo < k_hi):
        raise DomainError("fit range must satisfy 0 < k_lo < k_hi")
    survival = degree_survival(degrees)
    in_range = [(k, p) for k, p in survival if k_lo <= k <= k_hi and p > 0.0]
    if len(in_range) < 3:
        raise InsufficientDataError(
            f"only {len(in_range)} distinct degrees inside ({k_lo:g}, {k_hi:g}); need 3")
    ks, ps = np.array(in_range, dtype=float).T
    slope, _, _, _ = linear_fit(np.log(ks), np.log(ps))
    return DegreeDistFit(survival=survival, gamma=1.0 - slope, fit_range=(k_lo, k_hi))


def degree_distribution(nets, fit_range=None) -> DegreeDistFit:
    """Pool total degrees over the given networks and fit the survival tail
    over ``fit_range``, by default from the 20th to the 90th percentile of
    the n pooled degrees (sorted positions ``n // 5`` and ``9 * n // 10``)."""
    pooled = [net.degrees for net in nets]
    if not pooled:
        raise EmptyInputError("no networks given")
    degrees = np.concatenate(pooled)
    if fit_range is None:
        ks = np.sort(degrees)
        fit_range = (float(ks[ks.size // 5]), float(ks[(9 * ks.size) // 10]))
    return degree_distribution_from_degrees(degrees, fit_range)


def scaling_regression(points: Sequence[tuple[float, float]]) -> ScalingFit:
    """Fit ``value ~ prefactor * N**exponent`` by least squares on log-log axes."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise InsufficientDataError("need at least 3 points for a scaling fit")
    if any(n <= 0 or v <= 0 for n, v in pts):
        raise DomainError("scaling points must be positive")
    slope, intercept, _, _ = linear_fit(np.log([n for n, _ in pts]),
                                        np.log([v for _, v in pts]))
    return ScalingFit(exponent=slope, prefactor=math.exp(intercept), points=tuple(pts))
