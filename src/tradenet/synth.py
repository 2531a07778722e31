"""Gravity-style synthetic trade networks for tests and desk-scale panels.

Each country draws a log-normal GDP.  Every pair gets a gravity mass
``(GDP_i * GDP_j) ** coupling_exponent`` and two independent multiplicative
log-normal noise factors: one forms a link propensity that ranks the pairs
(the top ones are kept until the target link density is reached), the
other forms the kept pair's trade weight.  Keeping link existence separate
from the weight's noise means the retained weights stay log-normal instead
of being truncated at the density cutoff, while high-GDP countries still
collect the most links.  Each weight splits into export/import parts by a
uniform share.

All randomness comes from the portable seeded generator in
:mod:`tradenet.rng`, consumed in a fixed order (GDPs, propensity noise,
weight noise, shares in canonical pair order), so a (params, year)
combination always produces the identical network.

This is deliberately not a calibrated economic model: there is no distance
term and no attempt to match real countries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import DomainError, EmptyInputError, EmptyNetworkError
from .graph import AnnualTradeNetwork
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class GravityParams:
    n_countries: int
    gdp_logmean: float = 0.0
    gdp_logsd: float = 1.0
    coupling_exponent: float = 1.0
    link_density_target: float = 0.5
    noise_logsd: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class GrowthSchedule:
    """Per-year multipliers applied along a panel, each positive and finite."""

    n_multiplier: float = 1.0
    gdp_multiplier: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.n_multiplier < math.inf and 0.0 < self.gdp_multiplier < math.inf):
            raise DomainError("growth multipliers must be positive and finite, got "
                              f"{self.n_multiplier} and {self.gdp_multiplier}")


def country_codes(n: int) -> list[str]:
    """Synthetic country codes whose string order matches index order."""
    width = max(3, len(str(n - 1)))
    return [f"C{i:0{width}d}" for i in range(n)]


def generate_network(params: GravityParams, year: int) -> AnnualTradeNetwork:
    """Generate one synthetic annual network.

    The node set is the union of retained edge endpoints, so a country
    whose every candidate pair misses the density cutoff is absent.
    """
    _validate(params)
    n = params.n_countries
    rng = SplitMix64(derive_seed(params.seed, year))
    ii, jj = np.triu_indices(n, 1)  # the pairs i < j in canonical order
    n_pairs = ii.size
    # Scales too large for a float give non-finite weights, which the
    # network's weight check rejects with one error; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        log_gdp = params.gdp_logmean + params.gdp_logsd * rng.normal(n)
        log_mass = params.coupling_exponent * (log_gdp[ii] + log_gdp[jj])
        propensity = log_mass + params.noise_logsd * rng.normal(n_pairs)
        log_weights = log_mass + params.noise_logsd * rng.normal(n_pairs)

    n_links = int(round(params.link_density_target * n_pairs))
    n_links = max(1, min(n_pairs, n_links))
    # Highest propensity first; ties (possible only through float
    # collisions) break on the canonical pair order, which a stable sort of
    # the pairs, already in that order, keeps.
    order = np.argsort(-propensity, kind="stable")
    chosen = np.sort(order[:n_links])

    with np.errstate(over="ignore", invalid="ignore"):  # as above, and inf - inf
        w = np.exp(log_weights[chosen])
        w_exp = rng.uniform(n_links) * w
        w_imp = w - w_exp
    return AnnualTradeNetwork._from_indices(year, tuple(country_codes(n)), ii[chosen], jj[chosen],
                                            w_exp, w_imp)


def generate_panel(params: GravityParams, years: Iterable[int],
                   growth: GrowthSchedule = GrowthSchedule()) -> list[AnnualTradeNetwork]:
    """One network per year, with country count and GDP scale compounding
    by the growth multipliers.

    Year t uses ``round(n_countries * n_multiplier**t)`` countries
    (round-half-even) and a GDP log-mean shifted by ``t * ln(gdp_multiplier)``.
    Seeds derive from the base seed and the year.  Every year's parameters
    are checked before the first network is generated.
    """
    years = list(years)
    if not years:
        raise EmptyInputError("panel needs at least one year")
    schedule = []
    for t, year in enumerate(years):
        try:
            n_t = round(params.n_countries * growth.n_multiplier**t)
        except OverflowError:  # a count past the largest float
            raise DomainError(f"country count overflows in year {year}") from None
        if n_t < 2:
            raise DomainError(f"country count shrank below 2 in year {year}")
        params_t = replace(params,
                           n_countries=n_t,
                           gdp_logmean=params.gdp_logmean + t * math.log(growth.gdp_multiplier))
        _validate(params_t)
        schedule.append((params_t, year))
    return [generate_network(params_t, year) for params_t, year in schedule]


def multiplier_for(initial: float, final: float, steps: int) -> float:
    """Per-step multiplier that compounds ``initial`` to ``final`` over
    ``steps`` panel entries (steps - 1 applications)."""
    if not (0.0 < initial < math.inf and 0.0 < final < math.inf):
        raise DomainError("endpoints must be positive and finite")
    if steps < 2:
        return 1.0
    return (final / initial) ** (1.0 / (steps - 1))


def _validate(params: GravityParams) -> None:
    if params.n_countries < 2:
        raise DomainError("need at least 2 countries")
    if not 0 <= params.seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {params.seed}")
    if params.n_countries * (params.n_countries - 1) // 2 > np.iinfo(np.intp).max:
        raise DomainError(f"{params.n_countries:.3g} countries have too many pairs to index")
    if params.link_density_target == 0:
        raise EmptyNetworkError("link density target of 0 yields no edges")
    if not 0.0 < params.link_density_target <= 1.0:
        raise DomainError("link density target must lie in (0, 1]")
    for name in ("gdp_logmean", "gdp_logsd", "noise_logsd", "coupling_exponent"):
        if not math.isfinite(getattr(params, name)):
            raise DomainError(f"{name} must be finite, got {getattr(params, name)}")
    if params.gdp_logsd < 0 or params.noise_logsd < 0:
        raise DomainError("log standard deviations must be >= 0")
