"""Command-line front end for ingest -> build -> analyze pipelines.

One subcommand per analysis (summary, metrics, fit, percolate, richclub),
``panel`` for all of them and ``synth``, composable through files: dyadic
CSV/TSV in, CSV or JSON results out.  The analyses share one declaration
of their options, ``RunConfig``, and one year driver (``_run_years``).  All
output is deterministic for a given config and input (floats use shortest
round-trip form, iteration orders are canonical, all randomness is seeded),
and files are written atomically, but for a FIFO or other path that is not
a regular file, which is written in place.  Where more than one CPU is
usable, the files of the years are written by a forked writer process while
the command goes on analysing (see _Writer).

Exit codes: 0 success, 1 partial failure (some requested years failed),
2 config or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import re
import sys
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from ._procs import _forked, _shares, _usable_cpus, _Writer
from ._text import (_DELIMITERS, _atomic_file, _Coded, _read_utf8, _synth_texts,
                    _write_table)
from .distributions import (BINS_PER_DECADE, COLLAPSE_BINS_PER_DECADE, COLLAPSE_WINDOW,
                            FIT_DECADES, degree_distribution, fit_lognormal, fit_power_law,
                            intermediate_range, log_histogram, scaling_regression)
from .errors import DomainError, EmptyInputError, ParseError, TradeNetError, ValidationError
from .graph import MISSING_FLOW_POLICIES, build_network, load_snapshot, summarize
from .ingest import DUPLICATE_POLICIES, HEADER, pair_columns, read_columns
from .metrics import FLOWS, LogBinSpec, disparity_curve, node_metric_columns
from .percolation import ORDERS, fit_exponential_approach, percolate
from .richclub import CLUB_THRESHOLD, rich_club_curve, rich_club_size
from .synth import GravityParams, GrowthSchedule, generate_panel, multiplier_for

OUTDIR_ENV = "TRADENET_OUTDIR"


# ---------------------------------------------------------------------------
# Argument values, checked before any input is read or file is written


def _parse_years(spec: str | None) -> tuple[set[int], list[tuple[int, int]]] | None:
    """The years listed on their own and the LO:HI ranges of a year
    selection, or None for all years.  A range is not expanded; an empty
    selection is an error, not all years."""
    if spec in (None, "all"):
        return None
    years: set[int] = set()
    ranges: list[tuple[int, int]] = []
    try:
        for part in spec.split(","):
            lo, colon, hi = part.partition(":")
            if colon:
                ranges.append((int(lo), int(hi)))
            else:
                years.add(int(part))
    except ValueError:
        raise DomainError(f"invalid year selection {spec!r}") from None
    if any(lo > hi for lo, hi in ranges):
        raise DomainError(f"empty year range in selection {spec!r}")
    return years, ranges


def _selects(selection, year: int) -> bool:
    """Whether a _parse_years selection requests ``year`` of an input that
    has it."""
    if selection is None:
        return True
    years, ranges = selection
    return year in years or any(lo <= year <= hi for lo, hi in ranges)


def _selected_years(selection, available) -> list[int]:
    """The requested years: every available year when ``selection`` is
    None, else each year listed on its own and each available year inside
    a range."""
    listed = set() if selection is None else selection[0]
    return sorted(listed.union(y for y in available if _selects(selection, y)))


def _parse_float_range(spec: str | None) -> tuple[float, float] | None:
    if spec in (None, ""):
        return None
    try:
        lo, hi = spec.split(":", 1)
        lo, hi = float(lo), float(hi)
    except ValueError:
        raise DomainError(f"invalid range {spec!r}; expected LO:HI") from None
    if not lo < hi:
        raise DomainError(f"invalid range {spec!r}; LO must be less than HI")
    return lo, hi


_ANALYSES = ("summary", "metrics", "fit", "percolate", "richclub", "panel")
_DISPARITY = ("metrics", "panel")
_WEIGHT_FIT = ("fit", "panel")


# The checks of option values: each returns what is wrong with a value, or None.
def _count(value) -> str | None:
    return f"must be at least 1, got {value}" if value < 1 else None


def _positive(value) -> str | None:
    return None if 0.0 < value < math.inf else f"must be positive and finite, got {value}"


def _fraction(value) -> str | None:
    return None if 0.0 < value < 1.0 else f"must lie strictly between 0 and 1, got {value}"


def _window(window) -> str | None:
    return None if window is None or window[0] > 0.0 else f"LO must be positive, got {window[0]}"


def _option(flag: str, commands, default=MISSING, check=None, **kwargs):
    """A RunConfig field with ``default``, that the subcommands in
    ``commands`` take as ``flag`` with the further add_argument ``kwargs``,
    and whose values pass ``check``, if given."""
    return field(default=default,
                 metadata={"flag": flag, "commands": commands, "check": check, "kwargs": kwargs})


@dataclass(frozen=True)
class RunConfig:
    """The options of the analysis subcommands, each declared once, with its
    flag, subcommands, default (or the library's, where a library function
    has the same one), help text, type and check.  A config that fails a
    check or holds an invalid year selection cannot be built.  panel records
    it verbatim (but the outdir) in its manifest."""

    input_path: str = _option("--input", _ANALYSES, metavar="INPUT",
                              help="dyadic CSV/TSV file, snapshot JSON, or snapshot directory")
    outdir: str = _option("--outdir", _ANALYSES,
                          help=f"output directory (default: ${OUTDIR_ENV} or cwd)")
    input_format: str = _option("--format", _ANALYSES, "csv", choices=tuple(_DELIMITERS),
                                help="delimiter of dyadic record files")
    # the --years value as given; None for all
    years: str | None = _option("--years", _ANALYSES, None,
                                help="year selection: all (default), 1950, 1948:1960, or "
                                     "1948,1950; a range selects the years it holds")
    on_duplicate: str = _option("--on-duplicate", _ANALYSES, "mean", choices=DUPLICATE_POLICIES,
                                help="how to resolve duplicate reports of one directed flow")
    missing: str = _option("--missing", _ANALYSES, "zero", choices=MISSING_FLOW_POLICIES,
                           help="how a one-sided flow report enters the symmetrizing average")
    output_format: str = _option("--output-format", _ANALYSES, "csv", choices=("csv", "json"),
                                 help="format of tabular result files")
    flow: str = _option("--flow", _DISPARITY, "total", choices=FLOWS)
    disparity_bins_per_decade: int = _option("--disparity-bins-per-decade", _DISPARITY,
                                             LogBinSpec.bins_per_decade, _count, type=int)
    disparity_min_count: int = _option("--disparity-min-count", _DISPARITY,
                                       LogBinSpec.min_count, _count, type=int)
    bins_per_decade: int = _option("--bins-per-decade", _WEIGHT_FIT, BINS_PER_DECADE, _count,
                                   type=int)
    fit_range: tuple[float, float] | None = _option(
        "--fit-range", _WEIGHT_FIT, None, _window, type=_parse_float_range,
        help="power-law fit window LO:HI, LO > 0 (default: --fit-decades wide, "
             "centred on the log-binned weights' geometric mean)")
    fit_decades: float = _option("--fit-decades", _WEIGHT_FIT, FIT_DECADES, _positive,
                                 type=float, help="width of the default fit window in decades")
    collapse_bins_per_decade: int = _option("--collapse-bins-per-decade", _WEIGHT_FIT,
                                            COLLAPSE_BINS_PER_DECADE, _count, type=int)
    collapse_window: float = _option("--collapse-window", _WEIGHT_FIT, COLLAPSE_WINDOW,
                                     _positive, type=float,
                                     help="central region half-width in sigmas for collapse_mse")
    exp_fit_range: tuple[float, float] = _option(
        "--exp-fit-range", ("panel",), (0.05, 0.9), type=_parse_float_range,
        help="f range for the percolation exponential fit")
    emit_every: int = _option("--emit-every", ("percolate", "panel"), 1, _count, type=int,
                              help="write every n-th point of the curve")
    threshold: float = _option("--threshold", ("richclub", "panel"), CLUB_THRESHOLD, _fraction,
                               type=float, help="fraction of world trade defining the club")
    degree_fit_range: tuple[float, float] | None = _option(
        "--degree-fit-range", ("panel",), None, _window, type=_parse_float_range,
        help="k window LO:HI, LO > 0, of the pooled degree survival fit "
             "(default: the pooled degrees' 20th to 90th percentile)")

    def __post_init__(self):
        for option in fields(self):
            check = option.metadata["check"]
            problem = check and check(getattr(self, option.name))
            if problem:
                raise DomainError(f"{option.metadata['flag']} {problem}")
        _parse_years(self.years)


# ---------------------------------------------------------------------------
# Input loading and the year driver


def _load_networks(input_path: str, years, input_format: str, on_duplicate: str,
                   missing: str):
    """Load the annual networks that ``years``, a _parse_years selection,
    requests from a snapshot, a directory of snapshots, or a dyadic record
    file.

    Returns (networks by year, per-year error messages), both keyed only by
    requested years, in year order.  A selection that requests no year is an
    EmptyInputError.  In a directory, a snapshot named ``<year>_network.json``
    is selected by its name and not read here: its path stands for its
    network, which _named_snapshot loads.
    """
    path = Path(input_path)
    if not path.exists():
        raise EmptyInputError(f"input path {input_path!r} does not exist")
    available: dict[int, object] = {}
    builder = None
    if path.is_dir():
        unnamed = []
        for snap in sorted(path.glob("*_network.json")):
            prefix = snap.name[:-len("_network.json")]
            if not re.fullmatch(r"-?[0-9]+", prefix):
                unnamed.append(snap)
            elif _selects(years, int(prefix)):
                _add_snapshot(available, int(prefix), snap)
        for snap in unnamed:
            net = load_snapshot(snap)
            _add_snapshot(available, net.year, net)
    elif path.suffix == ".json":
        net = load_snapshot(path)
        available[net.year] = net
    else:
        cols = read_columns(path, input_format)
        paired = pair_columns(cols, on_duplicate)
        available = dict.fromkeys(cols.years)

        def builder(year):
            return build_network(paired, year, missing)

    requested = _selected_years(years, available)
    if not requested:
        raise EmptyInputError(f"no usable years in {input_path!r}")
    nets: dict[int, object] = {}
    errors: dict[int, str] = {}
    for year in requested:
        if year not in available:
            errors[year] = f"no records for year {year}"
            continue
        try:
            nets[year] = available[year] if builder is None else builder(year)
        except TradeNetError as exc:
            errors[year] = str(exc)
    return nets, errors


def _add_snapshot(available: dict, year: int, snapshot) -> None:
    """Add a network, or the path of a snapshot named for it, as ``year``'s,
    unless the directory has given that year already."""
    if year in available:
        raise ValidationError(f"duplicate snapshot for year {year}")
    available[year] = snapshot


def _named_snapshot(snap: Path, year: int):
    """The network of the snapshot ``snap``, named for ``year``, which its
    document must hold."""
    net = load_snapshot(snap)
    if net.year != year:
        raise ValidationError(f"snapshot {snap.name} holds year {net.year}")
    return net


def _run_years(config: RunConfig, year_step, panel_step=None) -> int:
    """Run one analysis subcommand over the years ``config`` selects.

    Loads the networks, calls ``year_step(out, net, config)`` on each
    network in year order and then ``panel_step(out, config, nets, results,
    errors)``, where ``out`` is the _Writer of the outdir and ``results``
    holds each year step's return value by year.  A snapshot named for its
    year is loaded just before that year's step, so the writer writes one
    year's files while the next loads; the outdir is made once the first
    network has loaded.  ``out`` is closed before the panel step, so that a
    file of the years that cannot be written raises before the panel step
    runs, which then writes its files here.  Reports each failed year on
    stderr; returns 1 if some requested year failed, else 0.
    """
    # Forked while this process is small, so that neither copies pages the
    # other writes.
    out = _Writer(Path(config.outdir), _usable_cpus())
    try:
        nets, errors = _load_networks(config.input_path, _parse_years(config.years),
                                      config.input_format, config.on_duplicate, config.missing)
        results = {}
        for year, net in nets.items():
            if isinstance(net, Path):
                nets[year] = net = _named_snapshot(net, year)
            _ensure_outdir(config.outdir)
            results[year] = year_step(out, net, config)
        _ensure_outdir(config.outdir)  # also where every requested year failed
        out.close()
        if panel_step is not None:
            panel_step(out, config, nets, results, errors)
    finally:
        out.close()
    for year in sorted(errors):
        print(f"error: year {year}: {errors[year]}", file=sys.stderr)
    return 1 if errors else 0


def _ensure_outdir(outdir: str) -> Path:
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Per-year and cross-year steps, shared by the single subcommands and panel

_SUMMARY_HEADER = ["year", "N", "L", "rho", "W", "mean_w", "w_max", "w_max_over_W"]
_RICHCLUB_SERIES_HEADER = ["year", "S_RC", "club_size", "N"]


def _summary_year(out: _Writer, net, config: RunConfig):
    """Write ``<year>_summary``; returns its file name and its row."""
    row = astuple(summarize(net))
    return out.table(f"{net.year}_summary", _SUMMARY_HEADER, zip(row), config.output_format), row


def _metrics_year(out: _Writer, net, config: RunConfig) -> str:
    """Write ``<year>_metrics``; returns its file name."""
    columns = [net.nodes, *node_metric_columns(net, config.flow).lists()]
    return out.table(f"{net.year}_metrics", ["country", "k", "k_exp", "k_imp", "s", "Y"],
                     columns, config.output_format)


def _fit_entry(fit, *args, table: str | None = None):
    """Call ``fit(*args)``; returns the result and its entry in a fits file,
    the result's fields but ``table``, which is written as a table.  A
    TradeNetError gives None and ``{"error": message}``."""
    try:
        result = fit(*args)
    except TradeNetError as exc:
        return None, {"error": str(exc)}
    return result, {name: value for name, value in vars(result).items() if name != table}


def _disparity(out: _Writer, config: RunConfig, nets, name: str):
    """Write the disparity curve pooled over ``nets`` as table ``name``;
    returns its _fit_entry and the file name, None if the curve failed."""
    binning = LogBinSpec(config.disparity_bins_per_decade, config.disparity_min_count)
    curve, entry = _fit_entry(disparity_curve, nets, config.flow, binning, table="points")
    if curve is None:
        return entry, None
    return entry, out.table(name, ["k_center", "mean_kY", "count"],
                            zip(*curve.points), config.output_format)


def _metrics_disparity(out: _Writer, config: RunConfig, nets, results, errors) -> None:
    if not nets:
        return
    entry, name = _disparity(out, config, list(nets.values()), "disparity_curve")
    if name is None:
        print(f"warning: disparity curve skipped: {entry['error']}", file=sys.stderr)
        return
    out.json("disparity_fit.json", {
        **entry, "bins_per_decade": config.disparity_bins_per_decade,
        "min_count": config.disparity_min_count})


def _weight_fits(weights, config: RunConfig):
    """Power-law and log-normal fits with per-fit error capture."""
    hist = log_histogram(weights, config.bins_per_decade)
    fit_range = config.fit_range or intermediate_range(hist, config.fit_decades)
    _, power_law = _fit_entry(fit_power_law, hist, fit_range)
    lnf, lognormal = _fit_entry(fit_lognormal, weights, config.collapse_bins_per_decade,
                                config.collapse_window, table="collapse")
    collapse = [] if lnf is None else lnf.collapse
    return hist, {"power_law": power_law, "lognormal": lognormal}, collapse


def _fit_files(out: _Writer, prefix: str, fitted, config: RunConfig) -> None:
    """Write a _weight_fits result: the histogram, the collapse and the fits."""
    hist, fits, collapse = fitted
    out.table(f"{prefix}_weight_hist", ["bin_lo", "bin_hi", "count", "density"],
              [hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.densities],
              config.output_format)
    out.table(f"{prefix}_collapse", ["x", "y"], zip(*collapse), config.output_format)
    out.json(f"{prefix}_fits.json", fits)


def _fit_year(out: _Writer, net, config: RunConfig) -> None:
    _fit_files(out, str(net.year), _weight_fits(net.w, config), config)


def _read_weight_list(path: str) -> list[float]:
    weights = []
    for lineno, line in enumerate(io.StringIO(_read_utf8(path), newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            weights.append(float(line))
        except ValueError:
            raise ParseError(f"non-numeric weight {line!r}", line=lineno) from None
    return weights


def _percolation_year(out: _Writer, net, config: RunConfig, orders):
    """Write every ``emit_every``-th point of each order's curve, and the
    last, as ``<year>_percolation``; returns its file name and the curves by
    order."""
    curves = {order: percolate(net, order) for order in orders}
    emit = np.arange(1, net.n_links + 1) % config.emit_every == 0
    emit[-1] = True
    # A giant fraction is s/N for a component size s.  The table is built
    # where it is written, from each point's s in the least type that holds
    # N: the command keeps a job until the writer has written it, which for
    # this one is while the next snapshot loads.
    giant = np.arange(net.n_nodes + 1) / net.n_nodes
    size = np.concatenate([np.searchsorted(giant, curve.giant[emit]) for curve in curves.values()])
    columns = functools.partial(_percolation_columns, orders, curves[orders[0]].f[emit], giant,
                                size.astype(np.min_scalar_type(net.n_nodes)))
    return out.table(f"{net.year}_percolation", ["order", "f", "giant_fraction", "gap"],
                     columns, config.output_format), curves


def _percolation_columns(orders, f, giant, size) -> list:
    """The columns of a percolation table: the written points of each order
    in turn, at the link fractions ``f``, where the giant fraction is
    ``giant[size]``.  Every order has the same link fractions, and a giant
    fraction is one of N + 1 values, so each column is written from its
    distinct values."""
    rows = np.arange(len(f))
    return [_Coded(list(orders), np.repeat(np.arange(len(orders)), len(rows))),
            _Coded(f, np.tile(rows, len(orders))), _Coded(giant, size), _Coded(1.0 - giant, size)]


def _percolation_fits(curves, fit_range) -> dict:
    return {order: _fit_entry(fit_exponential_approach, curve, fit_range)[1]
            for order, curve in curves.items()}


def _richclub_year(out: _Writer, net, config: RunConfig):
    """Write ``<year>_richclub``; returns its file name and the year's row
    of the rich-club series."""
    curve = rich_club_curve(net)
    name = out.table(f"{net.year}_richclub", ["s_over_smax", "f_w", "club_size"],
                     list(zip(*curve.points)), config.output_format)
    club_size, s_rc = rich_club_size(curve, net, config.threshold)
    return name, [net.year, s_rc, club_size, net.n_nodes]


def _richclub_series(out: _Writer, config: RunConfig, nets, results, errors) -> None:
    if results:
        out.table("richclub_series", _RICHCLUB_SERIES_HEADER,
                  zip(*(row for _, row in results.values())), config.output_format)


# ---------------------------------------------------------------------------
# Subcommands


def _years_command(year_step, panel_step=None):
    """The function of a subcommand that is one _run_years call."""
    return lambda args: _run_years(_config_from_args(args), year_step, panel_step)


def _cmd_fit(args) -> int:
    if args.weights is None:
        return _run_years(_config_from_args(args), _fit_year)
    args.input_path = ""  # the weight list stands in for --input
    config = _config_from_args(args)
    # Fitted before the outdir is made: a list log_histogram rejects leaves none.
    fitted = _weight_fits(_read_weight_list(args.weights), config)
    _fit_files(_Writer(_ensure_outdir(config.outdir), []), "weights", fitted, config)
    return 0


def _cmd_percolate(args) -> int:
    orders = {"desc": ("descending",), "asc": ("ascending",), "both": ORDERS}[args.order]

    def year_step(out, net, config):
        _, curves = _percolation_year(out, net, config, orders)
        if args.fit is not None:
            out.json(f"{net.year}_percolation_fit.json", _percolation_fits(curves, args.fit))

    return _run_years(_config_from_args(args), year_step)


def _cmd_synth(args) -> int:
    if not args.dyadic and not args.snapshot_dir:
        raise DomainError("synth needs --dyadic and/or --snapshot-dir")
    given = vars(args)  # an option left out keeps its dataclass field's default
    params, growth = (cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})
                      for cls in (GravityParams, GrowthSchedule))
    years = [args.year]  # without --years, a one-year panel
    if args.years is not None:
        selection = _parse_years(args.years)
        if selection is None:
            raise DomainError("synth --years must be explicit")
        singles, ranges = selection
        years = sorted(singles.union(*(range(lo, hi + 1) for lo, hi in ranges)))
    if args.n_final is not None:
        growth = replace(growth, n_multiplier=multiplier_for(params.n_countries,
                                                             args.n_final, len(years)))
    if args.gdp_scale_final is not None:
        growth = replace(growth, gdp_multiplier=multiplier_for(1.0, args.gdp_scale_final,
                                                               len(years)))
    nets = generate_panel(params, years, growth)
    if args.dyadic:
        Path(args.dyadic).parent.mkdir(parents=True, exist_ok=True)
    snap_dir = Path(args.snapshot_dir) if args.snapshot_dir else None
    if snap_dir is not None:
        snap_dir.mkdir(parents=True, exist_ok=True)
    rows, snapshot = bool(args.dyadic), snap_dir is not None
    cpus = _usable_cpus()
    # The years of every share but the first are formatted by a forked child;
    # this process writes every file, in year order.
    format_year = functools.partial(_synth_texts, rows, snapshot)
    with _forked(format_year, _shares(nets, len(cpus)), cpus) as texts, \
            _atomic_file(Path(args.dyadic)) if rows else contextlib.nullcontext() as dyadic:
        if dyadic is not None:
            _write_table(dyadic, HEADER, [])
        for net, (rows_text, snapshot_text) in zip(nets, texts):
            if dyadic is not None:
                dyadic.writelines(rows_text)
            if snap_dir is not None:
                with _atomic_file(snap_dir / f"{net.year}_network.json") as fh:
                    fh.writelines(snapshot_text)
    return 0


def run_analyze(config: RunConfig) -> int:
    """Run the full per-year pipeline plus cross-year series and fits.

    Writes six files per year (summary, metrics, fits, collapse,
    percolation, richclub), panel-level series and fits when more than one
    year is analyzed, and a manifest listing every artifact and every
    parameter.  Returns the process exit code.
    """
    return _run_years(config, _panel_year, _panel_files)


def _panel_year(out: _Writer, net, config: RunConfig):
    """Every per-year analysis; returns the sorted file names, the summary
    row and the rich-club series row."""
    # The percolation table, the year's largest file by far, goes to the
    # writer first, so that it is written while the other analyses run.
    percolation_file, curves = _percolation_year(out, net, config, ORDERS)
    percolation_fits = _percolation_fits(curves, config.exp_fit_range)
    summary_file, summary_row = _summary_year(out, net, config)
    files = [percolation_file, summary_file, _metrics_year(out, net, config)]
    _, fits, collapse = _weight_fits(net.w, config)
    files.append(out.table(f"{net.year}_collapse", ["x", "y"], zip(*collapse), config.output_format))
    fits["percolation"] = percolation_fits
    files.append(out.json(f"{net.year}_fits.json", fits))
    richclub_file, richclub_row = _richclub_year(out, net, config)
    return sorted(files + [richclub_file]), summary_row, richclub_row


def _panel_files(out: _Writer, config: RunConfig, nets, results, errors) -> None:
    """Write the cross-year tables and fits when two years or more were
    analysed, and the manifest."""
    warnings: list[str] = []
    panel_files: list[str] = []
    if len(results) >= 2:
        _, summary_rows, richclub_rows = zip(*results.values())
        panel_files = [
            out.table("panel_summary", _SUMMARY_HEADER, zip(*summary_rows), config.output_format),
            out.table("panel_richclub", _RICHCLUB_SERIES_HEADER, zip(*richclub_rows),
                      config.output_format),
            *_panel_fits(out, config, list(nets.values()), warnings)]
    years = {str(year): {"error": message} for year, message in errors.items()}
    years.update((str(year), {"files": result[0]}) for year, result in results.items())
    out.json("manifest.json", {
        "tool": "tradenet", "version": __version__, "input": config.input_path,
        # two runs into different directories must match
        "config": {k: v for k, v in asdict(config).items() if k != "outdir"},
        "years": years, "panel_files": panel_files, "warnings": warnings})


def _panel_fits(out: _Writer, config: RunConfig, nets, warnings: list[str]) -> list[str]:
    """Write the panel's disparity curve, degree survival and fits; a fit
    that fails is left out with a warning."""
    entries = {}  # _fit_entry entries by their panel_fits.json key and warning label
    points = [(net.n_nodes, 2.0 * net.n_links / net.n_nodes, int(net.degrees.max()))
              for net in nets]
    for key, label, column in (("mean_degree_vs_n", "mean-degree scaling fit", 1),
                               ("max_degree_vs_n", "max-degree scaling fit", 2)):
        entries[key, label] = _fit_entry(scaling_regression, [(p[0], p[column]) for p in points],
                                         table="points")[1]
    entries["disparity", "disparity curve"], name = _disparity(out, config, nets,
                                                               "panel_disparity_curve")
    files = [name] if name else []
    dd, entries["degree", "degree survival fit"] = _fit_entry(
        degree_distribution, nets, config.degree_fit_range, table="survival")
    if dd is not None:
        files.append(out.table("panel_degree_survival", ["k", "P_ge_k"],
                               zip(*dd.survival), config.output_format))
    warnings.extend(f"{label} skipped: {entry['error']}"
                    for (_, label), entry in entries.items() if "error" in entry)
    panel_fits = {key: entry for (key, _), entry in entries.items() if "error" not in entry}
    return files + [out.json("panel_fits.json", panel_fits)]


# ---------------------------------------------------------------------------
# Argument parsing

def _config_from_args(args) -> RunConfig:
    """The RunConfig of the options given on the command line.  An option
    left out keeps its field's default, and so does a LO:HI range given as
    ""."""
    given = vars(args)
    return RunConfig(**{option.name: given[option.name] for option in fields(RunConfig)
                        if given.get(option.name) is not None})


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2, the
    form every other config error takes."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _analysis_parser(sub, command: str, help: str, func):
    """The parser of an analysis subcommand, with the options of its
    RunConfig fields."""
    p = sub.add_parser(command, help=help)
    p.set_defaults(func=func)
    inputs = p
    if command == "fit":  # which reads exactly one of --input and --weights
        inputs = p.add_mutually_exclusive_group(required=True)
        inputs.add_argument("--weights", default=None,
                            help="plain text file of weights (one per line) instead of --input")
    for option in fields(RunConfig):
        name, meta = option.name, option.metadata
        if command in meta["commands"]:
            default = os.environ.get(OUTDIR_ENV, ".") if name == "outdir" else argparse.SUPPRESS
            (inputs if name == "input_path" else p).add_argument(
                meta["flag"], dest=name, default=default,
                required=name == "input_path" and inputs is p, **meta["kwargs"])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tradenet",
        description="Weighted trade-network analysis: build annual networks from "
                    "dyadic records and compute summary, metric, distribution, "
                    "percolation and rich-club results.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _analysis_parser(sub, "summary", "whole-network summary per year",
                     _years_command(_summary_year))
    _analysis_parser(sub, "metrics", "per-node metrics and disparity curve",
                     _years_command(_metrics_year, _metrics_disparity))
    _analysis_parser(sub, "fit", "weight histogram, power-law and log-normal fits", _cmd_fit)
    p = _analysis_parser(sub, "percolate", "weight-ordered giant-component growth",
                         _cmd_percolate)
    p.add_argument("--order", choices=("desc", "asc", "both"), default="both")
    p.add_argument("--fit", type=_parse_float_range, default=None,
                   help="also fit the exponential approach over f range LO:HI")
    _analysis_parser(sub, "richclub", "rich-club curve and series",
                     _years_command(_richclub_year, _richclub_series))

    p = sub.add_parser("synth", help="generate gravity-model synthetic data")
    p.add_argument("--countries", dest="n_countries", type=int, required=True)
    # The GravityParams and GrowthSchedule fields; their defaults are the dataclasses'.
    for flag, field in (("density", "link_density_target"), ("gdp-logmean", "gdp_logmean"),
                        ("gdp-logsd", "gdp_logsd"), ("coupling", "coupling_exponent"),
                        ("noise-logsd", "noise_logsd"), ("seed", "seed"),
                        ("n-multiplier", "n_multiplier"), ("gdp-multiplier", "gdp_multiplier")):
        p.add_argument(f"--{flag}", dest=field, type=int if field == "seed" else float,
                       default=argparse.SUPPRESS)
    p.add_argument("--year", type=int, default=2000)
    p.add_argument("--years", default=None, help="panel years, e.g. 1948:2000")
    p.add_argument("--n-final", type=int, default=None,
                   help="grow the country count to this value by the last year")
    p.add_argument("--gdp-scale-final", type=float, default=None,
                   help="total GDP scale growth across the panel")
    p.add_argument("--dyadic", default=None, help="write a dyadic CSV here")
    p.add_argument("--snapshot-dir", default=None,
                   help="write per-year snapshot JSON files here")
    p.set_defaults(func=_cmd_synth)

    _analysis_parser(sub, "panel", "full pipeline over all requested years",
                     lambda args: run_analyze(_config_from_args(args)))
    return parser


def main(argv=None) -> int:
    try:  # a bad LO:HI range raises DomainError in parse_args
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (TradeNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the allocation that failed
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
