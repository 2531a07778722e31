"""Record-by-record reference for ingest, kept as the tests' oracle.

This is how the library paired and symmetrized dyadic records before the
columnar core: one dict bucket per country pair, each duplicate report
resolved on its own, each pair symmetrized on its own.  The one change is
that ``mean`` sums a slot's reports in ascending value order, the order
the columnar core uses, so results cannot depend on record order.

A record is a (year, reporter, partner, export, import) tuple with None for
a flow that was not reported.
"""

from __future__ import annotations

import math

SLOTS = ("exp_ab", "imp_ab", "exp_ba", "imp_ba")


def oracle_networks(records, years, on_duplicate, missing):
    """Per requested year: {(a, b): (w_exp, w_imp, w)} in sorted key order,
    or the error message the CLI reports for that year."""
    out = {}
    for year in years:
        rows = [rec for rec in records if rec[0] == year]
        if not rows:
            out[year] = f"no records for year {year}"
            continue
        edges = {}
        for (a, b), flows in sorted(_buckets(rows).items()):
            resolved = {name: _resolve(values, on_duplicate) for name, values in flows.items()}
            w_exp = _average(resolved["exp_ab"], resolved["imp_ba"], missing)
            w_imp = _average(resolved["exp_ba"], resolved["imp_ab"], missing)
            if w_exp + w_imp != 0.0:
                edges[(a, b)] = (w_exp, w_imp, w_exp + w_imp)
        out[year] = edges if edges else f"no edges for year {year}"
    return out


def _buckets(records):
    buckets = {}
    for _, reporter, partner, export_value, import_value in records:
        if reporter < partner:
            key, exp_slot, imp_slot = (reporter, partner), "exp_ab", "imp_ab"
        else:
            key, exp_slot, imp_slot = (partner, reporter), "exp_ba", "imp_ba"
        slot = buckets.setdefault(key, {name: [] for name in SLOTS})
        if export_value:
            slot[exp_slot].append(export_value)
        if import_value:
            slot[imp_slot].append(import_value)
    return buckets


def _resolve(values, policy):
    if not values:
        return None
    if policy == "mean":
        total = 0.0
        for value in sorted(values):
            total += value
        return total / len(values)
    if policy == "first":
        return values[0]
    return max(values)


def _average(reported, mirrored, policy):
    if policy == "zero":
        return ((reported or 0.0) + (mirrored or 0.0)) / 2.0
    present = [v for v in (reported, mirrored) if v]
    if not present:
        return 0.0
    return present[0] if len(present) == 1 else (present[0] + present[1]) / 2.0


def records_of(cols):
    """The rows of DyadicColumns as records, in input order."""
    return list(zip([cols.years[i] for i in cols.year.tolist()],
                    [cols.codes[i] for i in cols.reporter.tolist()],
                    [cols.codes[i] for i in cols.partner.tolist()],
                    _optional(cols.exports), _optional(cols.imports)))


def paired_rows(paired):
    """The rows of PairedColumns as (year, a, b, exp_ab, imp_ab, exp_ba,
    imp_ba) tuples, None where a slot holds no report."""
    years = [paired.years[i] for i in paired.year.tolist()]
    a = [paired.codes[i] for i in paired.a.tolist()]
    b = [paired.codes[i] for i in paired.b.tolist()]
    return list(zip(years, a, b, *map(_optional, paired.flows.T)))


def _optional(values):
    return [None if math.isnan(v) else v for v in values.tolist()]
