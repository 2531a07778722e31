"""Seeded benchmark inputs and the ground truth the output checks compare to.

The generator is a numpy port of the gravity model in ``tradenet.synth``
(splitmix64 stream, log-normal GDPs, propensity-ranked links, uniform
export shares).  It is kept here, apart from the program, so that a change
to the program cannot change the benchmark's inputs: at the criterion-8
parameters and seed 11 it writes the same dyadic CSV, byte for byte, as
``tradenet synth`` (``PAPER_CSV_SHA256``), and ``synth_paper`` is checked
against it.

``expected_networks`` is an independent vectorised reading of the ingest
rules (zero flows are missing, duplicate reports resolve by mean or first,
one-sided flows are halved or copied); the per-year summary tables of every
workload are checked against it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

PAPER_CSV_SHA256 = "5e52f53367a04d5d43518dc80fb138770da28360d54b961d4a7ebe032124b243"

_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    z = _mix64(seed)
    for k in keys:
        z = _mix64((z + _GOLDEN + _mix64(k)) & _MASK)
    return z


class Stream:
    """Counter-based splitmix64 stream (same outputs as tradenet.rng.SplitMix64)."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK)
        self._count = 0

    def raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            z = self._seed + idx * np.uint64(_GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
        return z ^ (z >> np.uint64(31))

    def uniform(self, n: int) -> np.ndarray:
        return (self.raw(n) >> np.uint64(11)) * 2.0**-53

    def normal(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        u1 = ((self.raw(pairs) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        u2 = self.uniform(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out[:n]


@dataclass(frozen=True)
class Gravity:
    """Gravity-panel parameters, named as the ``tradenet synth`` flags."""

    countries: int
    years: tuple[int, int]
    n_final: int | None = None
    gdp_scale_final: float | None = None
    density: float = 0.5
    gdp_logsd: float = 1.0
    noise_logsd: float = 1.0

    def synth_args(self, seed: int) -> list[str]:
        args = ["--countries", str(self.countries),
                "--years", f"{self.years[0]}:{self.years[1]}",
                "--density", repr(self.density), "--gdp-logsd", repr(self.gdp_logsd),
                "--noise-logsd", repr(self.noise_logsd), "--seed", str(seed)]
        if self.n_final is not None:
            args += ["--n-final", str(self.n_final)]
        if self.gdp_scale_final is not None:
            args += ["--gdp-scale-final", repr(self.gdp_scale_final)]
        return args


@dataclass
class Net:
    """One generated year: canonical edges (i < j, sorted) over C-coded countries."""

    year: int
    n: int
    i: np.ndarray
    j: np.ndarray
    w_exp: np.ndarray
    w_imp: np.ndarray

    def codes(self) -> list[str]:
        width = max(3, len(str(self.n - 1)))
        return [f"C{k:0{width}d}" for k in range(self.n)]


def _multiplier(initial: float, final: float, steps: int) -> float:
    return 1.0 if steps < 2 else (final / initial) ** (1.0 / (steps - 1))


def gravity_panel(g: Gravity, seed: int, last: int | None = None) -> list[Net]:
    """The panel ``tradenet synth`` generates for ``g``; ``last`` keeps only
    the final ``last`` years (earlier years are not computed)."""
    years = list(range(g.years[0], g.years[1] + 1))
    n_mult = 1.0 if g.n_final is None else _multiplier(g.countries, g.n_final, len(years))
    gdp_mult = (1.0 if g.gdp_scale_final is None
                else _multiplier(1.0, g.gdp_scale_final, len(years)))
    first = 0 if last is None else len(years) - last
    return [_gravity_year(round(g.countries * n_mult**t), t * math.log(gdp_mult), g,
                          seed, years[t])
            for t in range(first, len(years))]


def _gravity_year(n: int, gdp_logmean: float, g: Gravity, seed: int, year: int) -> Net:
    rng = Stream(derive_seed(seed, year))
    log_gdp = gdp_logmean + g.gdp_logsd * rng.normal(n)
    ii, jj = np.triu_indices(n, 1)
    n_pairs = len(ii)
    log_mass = 1.0 * (log_gdp[ii] + log_gdp[jj])  # coupling exponent: synth's default 1
    propensity = log_mass + g.noise_logsd * rng.normal(n_pairs)
    weights = np.exp(log_mass + g.noise_logsd * rng.normal(n_pairs))
    n_links = max(1, min(n_pairs, int(round(g.density * n_pairs))))
    chosen = np.sort(np.lexsort((jj, ii, -propensity))[:n_links])
    shares = rng.uniform(n_links)
    w = weights[chosen]
    w_exp = shares * w
    return Net(year, n, ii[chosen], jj[chosen], w_exp, w - w_exp)


# ---------------------------------------------------------------------------
# Dyadic rows: columns year, reporter, partner (country indices), export,
# import (NaN = empty cell).


@dataclass
class Rows:
    year: np.ndarray
    rep: np.ndarray
    par: np.ndarray
    exp: np.ndarray
    imp: np.ndarray
    width: int

    def __len__(self) -> int:
        return len(self.year)

    def take(self, idx: np.ndarray) -> "Rows":
        return Rows(self.year[idx], self.rep[idx], self.par[idx],
                    self.exp[idx], self.imp[idx], self.width)


def consistent_rows(nets: list[Net]) -> Rows:
    """Two identical reports per flow, in the order ``tradenet synth`` writes
    them: per edge (a, b) the row of a, then the row of b."""
    width = max(max(3, len(str(net.n - 1))) for net in nets)
    parts = []
    for net in nets:
        exp_ab = np.where(net.w_exp > 0.0, net.w_exp, np.nan)
        imp_ab = np.where(net.w_imp > 0.0, net.w_imp, np.nan)
        m = len(net.i)
        year = np.full(2 * m, net.year)
        rep = np.empty(2 * m, dtype=np.int64)
        par = np.empty(2 * m, dtype=np.int64)
        exp = np.empty(2 * m)
        imp = np.empty(2 * m)
        rep[0::2], par[0::2], exp[0::2], imp[0::2] = net.i, net.j, exp_ab, imp_ab
        rep[1::2], par[1::2], exp[1::2], imp[1::2] = net.j, net.i, imp_ab, exp_ab
        parts.append((year, rep, par, exp, imp))
    return Rows(*(np.concatenate(cols) for cols in zip(*parts)), width=width)


def csv_text(rows: Rows) -> str:
    def cell(v: float) -> str:
        return "" if v != v else repr(v)

    codes = [f"C{k:0{rows.width}d}" for k in range(int(max(rows.rep.max(), rows.par.max())) + 1)]
    lines = ["year,reporter,partner,export,import\n"]
    lines.extend(f"{y},{codes[r]},{codes[p]},{cell(e)},{cell(m)}\n"
                 for y, r, p, e, m in zip(rows.year.tolist(), rows.rep.tolist(),
                                          rows.par.tolist(), rows.exp.tolist(),
                                          rows.imp.tolist()))
    return "".join(lines)


def snapshot_text(net: Net) -> str:
    """The canonical snapshot document tradenet writes for this network."""
    codes = net.codes()
    doc = {
        "format": "trade-network-snapshot",
        "version": 1,
        "year": net.year,
        "nodes": [codes[k] for k in np.unique(np.concatenate((net.i, net.j))).tolist()],
        "edges": [[codes[a], codes[b], we, wi] for a, b, we, wi in
                  zip(net.i.tolist(), net.j.tolist(), net.w_exp.tolist(), net.w_imp.tolist())],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# Messy input: one-sided flows, reported zeros, jittered duplicates, shuffled.


@dataclass(frozen=True)
class MessStats:
    dup_reports: int
    one_sided_flows: int


# The shares are chosen so that every ingest path the clean inputs skip
# (duplicate resolution, one-sided flows, reported zeros, row order) does a
# visible share of the work.  They are not taken from measured trade data,
# and how closely they match real mirror-statistics discrepancies is unverified.
ONE_SIDED = 0.10  # share of directed flows that lose one of their two reports
ZEROS = 0.02  # share of reports replaced by a reported zero
DUPLICATES = 0.08  # share of rows repeated with jittered values


def make_messy(rows: Rows, seed: int) -> tuple[Rows, MessStats]:
    """Perturb consistent rows (mirror pairs at 2k, 2k+1).

    A one-sided flow loses one of its two reports; a reported zero replaces
    a present report (the reader treats it as missing); a duplicated row is
    repeated once with every value scaled by a log-normal factor (sigma
    0.05).  Rows are then shuffled, so ``first`` depends on row order.
    """
    rng = Stream(derive_seed(seed, 0x6D657373))
    exp, imp = rows.exp.copy(), rows.imp.copy()
    n_pairs = len(rows) // 2
    a_row = 2 * np.arange(n_pairs)
    b_row = a_row + 1
    # flow a->b is reported as exp[a_row] and imp[b_row]; flow b->a as
    # exp[b_row] and imp[a_row]
    for exp_rows, imp_rows in ((a_row, b_row), (b_row, a_row)):
        lose = rng.uniform(n_pairs) < ONE_SIDED
        by_exporter = rng.uniform(n_pairs) < 0.5
        exp[exp_rows[lose & by_exporter]] = np.nan
        imp[imp_rows[lose & ~by_exporter]] = np.nan
    for col in (exp, imp):
        col[(rng.uniform(len(col)) < ZEROS) & (col > 0.0)] = 0.0

    dup = np.flatnonzero(rng.uniform(len(rows)) < DUPLICATES)
    jitter = np.exp(0.05 * rng.normal(2 * len(dup)))
    perturbed = Rows(rows.year, rows.rep, rows.par, exp, imp, rows.width)
    extra = perturbed.take(dup)
    extra.exp = extra.exp * jitter[0::2]
    extra.imp = extra.imp * jitter[1::2]
    both = Rows(*(np.concatenate((getattr(perturbed, f), getattr(extra, f)))
                  for f in ("year", "rep", "par", "exp", "imp")), width=rows.width)
    messy = both.take(np.argsort(rng.uniform(len(both)), kind="stable"))

    # positive reports per directed flow (NaN compares False)
    forward = (exp[a_row] > 0.0).astype(int) + (imp[b_row] > 0.0)
    backward = (exp[b_row] > 0.0).astype(int) + (imp[a_row] > 0.0)
    stats = MessStats(
        dup_reports=int((extra.exp > 0.0).sum() + (extra.imp > 0.0).sum()),
        one_sided_flows=int((forward == 1).sum() + (backward == 1).sum()))
    return messy, stats


# ---------------------------------------------------------------------------
# Ground truth


@dataclass
class Expected:
    """One year's symmetrized network, edges in canonical order."""

    year: int
    n_nodes: int
    w: np.ndarray

    def summary_row(self) -> list:
        """Values of the year's summary table row (year, N, L, rho, W, ...)."""
        n, n_links = self.n_nodes, len(self.w)
        total = float(np.cumsum(self.w)[-1])  # left-to-right, as the reader sums
        w_max = float(self.w.max())
        return [self.year, n, n_links, n_links / (n * (n - 1) / 2), total,
                total / n_links, w_max, w_max / total]


def expected_from_nets(nets: list[Net]) -> list[Expected]:
    return [Expected(net.year, len(np.unique(np.concatenate((net.i, net.j)))),
                     net.w_exp + net.w_imp) for net in nets]


def expected_networks(rows: Rows, on_duplicate: str, missing: str) -> list[Expected]:
    """Networks the ingest rules build from ``rows``, one per year."""
    n = int(max(rows.rep.max(), rows.par.max())) + 1
    forward = rows.rep < rows.par
    lo = np.minimum(rows.rep, rows.par)
    hi = np.maximum(rows.rep, rows.par)
    # slots of a canonical pair (a < b): 0 exp_ab, 1 imp_ab, 2 exp_ba, 3 imp_ba
    slot = np.concatenate((np.where(forward, 0, 2), np.where(forward, 1, 3)))
    value = np.concatenate((rows.exp, rows.imp))
    order = np.concatenate((2 * np.arange(len(rows)), 2 * np.arange(len(rows)) + 1))
    pair = (np.concatenate((rows.year, rows.year)).astype(np.int64) * n
            + np.concatenate((lo, lo))) * n + np.concatenate((hi, hi))
    keep = value > 0.0
    key = (pair * 4 + slot)[keep]
    value, order = value[keep], order[keep]
    by_order = np.argsort(order, kind="stable")
    key, value = key[by_order], value[by_order]

    keys, first_idx, inverse, counts = np.unique(key, return_index=True,
                                                 return_inverse=True, return_counts=True)
    if on_duplicate == "mean":
        resolved = np.bincount(inverse, weights=value) / counts
    else:  # "first"
        resolved = value[first_idx]

    pairs, pair_idx = np.unique(keys // 4, return_inverse=True)
    slots = np.full((len(pairs), 4), np.nan)
    slots[pair_idx, keys % 4] = resolved
    w_exp = _average(slots[:, 0], slots[:, 3], missing)
    w_imp = _average(slots[:, 2], slots[:, 1], missing)
    w = w_exp + w_imp
    pairs, w = pairs[w != 0.0], w[w != 0.0]
    year, rest = np.divmod(pairs, n * n)
    out = []
    for y in np.unique(year).tolist():
        sel = year == y
        nodes = np.unique(np.concatenate(np.divmod(rest[sel], n)))
        out.append(Expected(int(y), len(nodes), w[sel]))
    return out


def _average(reported: np.ndarray, mirrored: np.ndarray, missing: str) -> np.ndarray:
    r = np.nan_to_num(reported, nan=0.0)
    m = np.nan_to_num(mirrored, nan=0.0)
    if missing == "zero":
        return (r + m) / 2.0
    present = (r > 0.0).astype(int) + (m > 0.0)
    return np.where(present > 0, (r + m) / np.maximum(present, 1), 0.0)
