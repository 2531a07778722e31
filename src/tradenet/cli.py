"""Command-line front end for ingest -> build -> analyze pipelines.

One subcommand per analysis (summary, metrics, fit, percolate, richclub,
synth, panel), composable through files: dyadic CSV/TSV in, CSV or JSON
results out.  All output is deterministic for a given config and input
(floats use shortest round-trip form, iteration orders are canonical, all
randomness is seeded), and files are written atomically.

Exit codes: 0 success, 1 partial failure (some requested years failed),
2 config or parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import (COLLAPSE_BINS_PER_DECADE, collapse_transform,
                            degree_distribution_from_degrees, fit_lognormal,
                            fit_power_law, intermediate_range, log_histogram,
                            scaling_regression)
from .errors import (DomainError, EmptyInputError, InsufficientDataError,
                     ParseError, TradeNetError, ValidationError)
from .graph import build_network, load_snapshot, save_snapshot, summarize
from .ingest import pair_columns, read_columns, write_network_records
from .metrics import LogBinSpec, disparity_curve, node_metric_columns
from .percolation import ORDERS, fit_exponential_approach, percolate
from .richclub import rich_club_curve, rich_club_size
from .synth import (GravityParams, GrowthSchedule, generate_network,
                    generate_panel, multiplier_for)

OUTDIR_ENV = "TRADENET_OUTDIR"


@dataclass
class RunConfig:
    """Everything a panel run needs; recorded verbatim in the manifest."""

    input_path: str
    outdir: str
    years: list[int] | None = None
    input_format: str = "csv"
    output_format: str = "csv"
    on_duplicate: str = "mean"
    missing: str = "zero"
    flow: str = "total"
    bins_per_decade: int = 10
    fit_decades: float = 2.5
    fit_range: tuple[float, float] | None = None
    collapse_bins_per_decade: int = COLLAPSE_BINS_PER_DECADE
    collapse_window: float = 2.0
    disparity_bins_per_decade: int = 8
    disparity_min_count: int = 3
    exp_fit_range: tuple[float, float] = (0.05, 0.9)
    emit_every: int = 1
    threshold: float = 0.5
    degree_fit_range: tuple[float, float] | None = None


# ---------------------------------------------------------------------------
# Output helpers


def _plain(value):
    """Coerce numpy scalars so CSV/JSON serialization stays canonical."""
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"


def _table_text(header, columns, output_format: str) -> str:
    """A table given as columns, as CSV or JSON text.

    A column is a numpy array or a sequence of Python ints, floats, strs and
    Nones.  CSV writes a float as its repr and None as an empty cell; JSON
    writes a float as its repr and None as null.
    """
    if output_format == "json":
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        return _json_text([dict(zip(header, row)) for row in zip(*columns)])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*map(_csv_cells, columns)))
    return buf.getvalue()


def _csv_cells(column):
    """A column as values csv.writer formats the same way."""
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind != "f":
        return column.tolist()
    # Percolation columns repeat few values (S_g/N takes at most N), so each
    # distinct value is formatted once; keyed by bits to keep -0.0 apart.
    bits, inverse = np.unique(np.ascontiguousarray(column, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit_table(outdir: Path, name: str, header, columns, output_format: str) -> str:
    ext = "json" if output_format == "json" else "csv"
    filename = f"{name}.{ext}"
    _write_atomic(outdir / filename, _table_text(header, columns, output_format))
    return filename


# ---------------------------------------------------------------------------
# Argument values, checked before any input is read or file is written


def _parse_years(spec: str | None) -> list[int] | None:
    if spec in (None, "", "all"):
        return None
    years: set[int] = set()
    try:
        for part in spec.split(","):
            part = part.strip()
            if ":" in part:
                lo, hi = part.split(":", 1)
                years.update(range(int(lo), int(hi) + 1))
            else:
                years.add(int(part))
    except ValueError:
        raise DomainError(f"invalid year selection {spec!r}") from None
    if not years:
        raise DomainError(f"empty year selection {spec!r}")
    return sorted(years)


def _parse_float_range(spec: str | None) -> tuple[float, float] | None:
    if spec in (None, ""):
        return None
    try:
        lo, hi = spec.split(":", 1)
        return float(lo), float(hi)
    except ValueError:
        raise DomainError(f"invalid range {spec!r}; expected LO:HI") from None


def _check_emit_every(emit_every: int) -> None:
    if emit_every < 1:
        raise DomainError(f"--emit-every must be at least 1, got {emit_every}")


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"--threshold must lie strictly between 0 and 1, got {threshold}")


# ---------------------------------------------------------------------------
# Input loading


def _load_networks(input_path: str, years: list[int] | None, input_format: str,
                   on_duplicate: str, missing: str):
    """Load requested annual networks from a snapshot, a directory of
    snapshots, or a dyadic record file.

    Returns (networks by year, per-year error messages), both keyed only by
    requested years.
    """
    path = Path(input_path)
    if not path.exists():
        raise EmptyInputError(f"input path {input_path!r} does not exist")
    available: dict[int, object] = {}
    if path.is_dir():
        for snap in sorted(path.glob("*_network.json")):
            net = load_snapshot(snap)
            if net.year in available:
                raise ValidationError(f"duplicate snapshot for year {net.year}")
            available[net.year] = net
        builder = None
    elif path.suffix == ".json":
        net = load_snapshot(path)
        available[net.year] = net
        builder = None
    else:
        cols = read_columns(path, input_format)
        paired = pair_columns(cols, on_duplicate)
        available = dict.fromkeys(cols.years)

        def builder(year):
            return build_network(paired, year, missing)

    requested = years if years is not None else sorted(available)
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


def _report_year_errors(errors: dict[int, str]) -> None:
    for year in sorted(errors):
        print(f"error: year {year}: {errors[year]}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Per-analysis table builders (shared by the simple subcommands and panel)


def _summary_header_row(net):
    s = summarize(net)
    header = ["year", "N", "L", "rho", "W", "mean_w", "w_max", "w_max_over_W"]
    row = [s.year, s.n_nodes, s.n_links, s.rho, s.total_trade,
           s.mean_weight, s.max_weight, s.max_weight_share]
    return header, row


def _metrics_columns(net, flow: str):
    header = ["country", "k", "k_exp", "k_imp", "s", "Y"]
    return header, [net.nodes, *node_metric_columns(net, flow).lists()]


def _percolation_columns(net, orders, emit_every: int):
    """Every ``emit_every``-th point of each order's curve, and the last."""
    header = ["order", "f", "giant_fraction", "gap"]
    order_col, f, giant = [], [], []
    curves = {}
    for order in orders:
        curve = percolate(net, order)
        curves[order] = curve
        emit = np.arange(1, len(curve.f) + 1) % emit_every == 0
        emit[-1] = True
        order_col += [order] * int(emit.sum())
        f.append(curve.f[emit])
        giant.append(curve.giant[emit])
    giant = np.concatenate(giant)
    return header, [order_col, np.concatenate(f), giant, 1.0 - giant], curves


def _percolation_fits(curves, fit_range) -> dict:
    fits = {}
    for order, curve in curves.items():
        try:
            ef = fit_exponential_approach(curve, fit_range)
            fits[order] = {"rate": ef.rate, "fit_range": list(ef.fit_range),
                           "r_squared": ef.r_squared}
        except TradeNetError as exc:
            fits[order] = {"error": str(exc)}
    return fits


def _richclub_columns(net):
    curve = rich_club_curve(net)
    header = ["s_over_smax", "f_w", "club_size"]
    return header, list(zip(*curve.points)), curve


def _weight_fits(weights, config: RunConfig):
    """Power-law and log-normal fits with per-fit error capture."""
    fits: dict[str, object] = {}
    hist = log_histogram(weights, config.bins_per_decade)
    fit_range = config.fit_range or intermediate_range(hist, config.fit_decades)
    try:
        plf = fit_power_law(hist, fit_range)
        fits["power_law"] = {"tau": plf.tau, "tau_stderr": plf.tau_stderr,
                             "fit_range": list(plf.fit_range),
                             "r_squared": plf.r_squared}
    except TradeNetError as exc:
        fits["power_law"] = {"error": str(exc)}
    try:
        lnf = fit_lognormal(weights, config.collapse_bins_per_decade,
                            config.collapse_window)
        fits["lognormal"] = {"w0": lnf.w0, "sigma": lnf.sigma,
                             "collapse_mse": lnf.collapse_mse}
        collapse = collapse_transform(weights, lnf.w0, lnf.sigma,
                                      config.collapse_bins_per_decade)
    except TradeNetError as exc:
        fits["lognormal"] = {"error": str(exc)}
        collapse = []
    return hist, fits, collapse


# ---------------------------------------------------------------------------
# Simple subcommands


def _cmd_summary(args) -> int:
    nets, errors = _load_networks(args.input, _parse_years(args.years),
                                  args.format, args.on_duplicate, args.missing)
    outdir = _ensure_outdir(args.outdir)
    for year, net in sorted(nets.items()):
        header, row = _summary_header_row(net)
        _emit_table(outdir, f"{year}_summary", header, zip(row), args.output_format)
    _report_year_errors(errors)
    return 1 if errors else 0


def _cmd_metrics(args) -> int:
    nets, errors = _load_networks(args.input, _parse_years(args.years),
                                  args.format, args.on_duplicate, args.missing)
    outdir = _ensure_outdir(args.outdir)
    for year, net in sorted(nets.items()):
        header, columns = _metrics_columns(net, args.flow)
        _emit_table(outdir, f"{year}_metrics", header, columns, args.output_format)
    if nets:
        binning = LogBinSpec(args.disparity_bins_per_decade, args.disparity_min_count)
        try:
            curve = disparity_curve([nets[y] for y in sorted(nets)], args.flow, binning)
            _emit_table(outdir, "disparity_curve", ["k_center", "mean_kY", "count"],
                        zip(*curve.points), args.output_format)
            _write_atomic(outdir / "disparity_fit.json", _json_text({
                "flow": curve.flow,
                "exponent": curve.exponent,
                "exponent_stderr": curve.exponent_stderr,
                "bins_per_decade": binning.bins_per_decade,
                "min_count": binning.min_count,
            }))
        except InsufficientDataError as exc:
            print(f"warning: disparity curve skipped: {exc}", file=sys.stderr)
    _report_year_errors(errors)
    return 1 if errors else 0


def _cmd_fit(args) -> int:
    outdir = _ensure_outdir(args.outdir)
    config = _config_from_args(args)
    if args.weights:
        weights = _read_weight_list(args.weights)
        _emit_fit_files(outdir, "weights", weights, config, args.output_format)
        return 0
    nets, errors = _load_networks(args.input, _parse_years(args.years),
                                  args.format, args.on_duplicate, args.missing)
    for year, net in sorted(nets.items()):
        _emit_fit_files(outdir, str(year), net.w, config, args.output_format)
    _report_year_errors(errors)
    return 1 if errors else 0


def _emit_fit_files(outdir: Path, prefix: str, weights, config: RunConfig,
                    output_format: str) -> list[str]:
    hist, fits, collapse = _weight_fits(weights, config)
    files = []
    files.append(_emit_table(
        outdir, f"{prefix}_weight_hist", ["bin_lo", "bin_hi", "count", "density"],
        [hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts, hist.densities],
        output_format))
    files.append(_emit_table(outdir, f"{prefix}_collapse", ["x", "y"],
                             zip(*collapse), output_format))
    name = f"{prefix}_fits.json"
    _write_atomic(outdir / name, _json_text(fits))
    files.append(name)
    return files


def _read_weight_list(path: str) -> list[float]:
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                weights.append(float(line))
            except ValueError:
                raise ParseError(f"non-numeric weight {line!r}", line=lineno) from None
    return weights


def _cmd_percolate(args) -> int:
    fit_range = _parse_float_range(args.fit)
    _check_emit_every(args.emit_every)
    nets, errors = _load_networks(args.input, _parse_years(args.years),
                                  args.format, args.on_duplicate, args.missing)
    outdir = _ensure_outdir(args.outdir)
    orders = {"desc": ("descending",), "asc": ("ascending",),
              "both": ("descending", "ascending")}[args.order]
    for year, net in sorted(nets.items()):
        header, columns, curves = _percolation_columns(net, orders, args.emit_every)
        _emit_table(outdir, f"{year}_percolation", header, columns, args.output_format)
        if fit_range is not None:
            _write_atomic(outdir / f"{year}_percolation_fit.json",
                          _json_text(_percolation_fits(curves, fit_range)))
    _report_year_errors(errors)
    return 1 if errors else 0


def _cmd_richclub(args) -> int:
    _check_threshold(args.threshold)
    nets, errors = _load_networks(args.input, _parse_years(args.years),
                                  args.format, args.on_duplicate, args.missing)
    outdir = _ensure_outdir(args.outdir)
    series_rows = []
    for year, net in sorted(nets.items()):
        header, columns, curve = _richclub_columns(net)
        _emit_table(outdir, f"{year}_richclub", header, columns, args.output_format)
        club_size, s_rc = rich_club_size(curve, net, args.threshold)
        series_rows.append([year, s_rc, club_size, net.n_nodes])
    if series_rows:
        _emit_table(outdir, "richclub_series", ["year", "S_RC", "club_size", "N"],
                    zip(*series_rows), args.output_format)
    _report_year_errors(errors)
    return 1 if errors else 0


def _cmd_synth(args) -> int:
    if not args.dyadic and not args.snapshot_dir:
        raise DomainError("synth needs --dyadic and/or --snapshot-dir")
    params = GravityParams(
        n_countries=args.countries,
        gdp_logmean=args.gdp_logmean,
        gdp_logsd=args.gdp_logsd,
        coupling_exponent=args.coupling,
        link_density_target=args.density,
        noise_logsd=args.noise_logsd,
        seed=args.seed,
    )
    if args.years:
        years = _parse_years(args.years)
        if years is None:
            raise DomainError("synth --years must be explicit")
        n_mult = args.n_multiplier
        gdp_mult = args.gdp_multiplier
        if args.n_final is not None:
            n_mult = multiplier_for(args.countries, args.n_final, len(years))
        if args.gdp_scale_final is not None:
            gdp_mult = multiplier_for(1.0, args.gdp_scale_final, len(years))
        nets = generate_panel(params, years, GrowthSchedule(n_mult, gdp_mult))
    else:
        nets = [generate_network(params, args.year)]
    if args.dyadic:
        Path(args.dyadic).parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(args.dyadic).with_name(Path(args.dyadic).name + ".tmp")
        write_network_records(nets, tmp)
        os.replace(tmp, args.dyadic)
    if args.snapshot_dir:
        snap_dir = Path(args.snapshot_dir)
        snap_dir.mkdir(parents=True, exist_ok=True)
        for net in nets:
            tmp = snap_dir / f"{net.year}_network.json.tmp"
            save_snapshot(net, tmp)
            os.replace(tmp, snap_dir / f"{net.year}_network.json")
    return 0


# ---------------------------------------------------------------------------
# panel (run_analyze)


def run_analyze(config: RunConfig) -> int:
    """Run the full per-year pipeline plus cross-year series and fits.

    Writes six files per year (summary, metrics, fits, collapse,
    percolation, richclub), panel-level series and fits when more than one
    year is analyzed, and a manifest listing every artifact and every
    parameter.  Returns the process exit code.
    """
    _check_emit_every(config.emit_every)
    _check_threshold(config.threshold)
    nets, errors = _load_networks(config.input_path, config.years,
                                  config.input_format, config.on_duplicate,
                                  config.missing)
    outdir = _ensure_outdir(config.outdir)
    warnings: list[str] = []
    year_entries: dict[str, dict] = {
        str(year): {"error": message} for year, message in errors.items()}

    ordered_years = sorted(nets)
    summary_rows = []
    richclub_rows = []
    scaling_points = []
    for year in ordered_years:
        files, summary_row, rc_row, degree_stats = _analyze_year(nets[year], config, outdir)
        year_entries[str(year)] = {"files": files}
        summary_rows.append(summary_row)
        richclub_rows.append(rc_row)
        scaling_points.append(degree_stats)

    panel_files: list[str] = []
    if len(ordered_years) >= 2:
        panel_files.append(_emit_table(
            outdir, "panel_summary",
            ["year", "N", "L", "rho", "W", "mean_w", "w_max", "w_max_over_W"],
            zip(*summary_rows), config.output_format))
        panel_files.append(_emit_table(
            outdir, "panel_richclub", ["year", "S_RC", "club_size", "N"],
            zip(*richclub_rows), config.output_format))
        panel_files.extend(_emit_panel_fits(
            outdir, [nets[y] for y in ordered_years], scaling_points, config, warnings))

    manifest = {
        "tool": "tradenet",
        "version": __version__,
        "input": config.input_path,
        "config": _config_dict(config),
        "years": year_entries,
        "panel_files": panel_files,
        "warnings": warnings,
    }
    _write_atomic(outdir / "manifest.json", _json_text(manifest))
    _report_year_errors(errors)
    return 1 if errors else 0


def _analyze_year(net, config: RunConfig, outdir: Path):
    year = net.year
    files = []

    header, row = _summary_header_row(net)
    files.append(_emit_table(outdir, f"{year}_summary", header, zip(row),
                             config.output_format))
    summary_row = row

    header, columns = _metrics_columns(net, config.flow)
    files.append(_emit_table(outdir, f"{year}_metrics", header, columns,
                             config.output_format))
    degree_stats = (net.n_nodes, 2.0 * net.n_links / net.n_nodes, int(net.degrees.max()))

    hist, fits, collapse = _weight_fits(net.w, config)
    files.append(_emit_table(outdir, f"{year}_collapse", ["x", "y"], zip(*collapse),
                             config.output_format))

    header, columns, curves = _percolation_columns(net, ORDERS, config.emit_every)
    files.append(_emit_table(outdir, f"{year}_percolation", header, columns,
                             config.output_format))
    fits["percolation"] = _percolation_fits(curves, config.exp_fit_range)
    name = f"{year}_fits.json"
    _write_atomic(outdir / name, _json_text(fits))
    files.append(name)

    header, columns, curve = _richclub_columns(net)
    files.append(_emit_table(outdir, f"{year}_richclub", header, columns,
                             config.output_format))
    club_size, s_rc = rich_club_size(curve, net, config.threshold)
    richclub_row = [year, s_rc, club_size, net.n_nodes]

    return sorted(files), summary_row, richclub_row, degree_stats


def _emit_panel_fits(outdir: Path, nets, scaling_points, config: RunConfig,
                     warnings: list[str]) -> list[str]:
    files = []
    panel_fits: dict[str, object] = {}

    try:
        mean_k = scaling_regression([(n, mk) for n, mk, _ in scaling_points])
        panel_fits["mean_degree_vs_n"] = {"exponent": mean_k.exponent,
                                          "prefactor": mean_k.prefactor}
    except TradeNetError as exc:
        warnings.append(f"mean-degree scaling fit skipped: {exc}")
    try:
        max_k = scaling_regression([(n, km) for n, _, km in scaling_points])
        panel_fits["max_degree_vs_n"] = {"exponent": max_k.exponent,
                                         "prefactor": max_k.prefactor}
    except TradeNetError as exc:
        warnings.append(f"max-degree scaling fit skipped: {exc}")

    binning = LogBinSpec(config.disparity_bins_per_decade, config.disparity_min_count)
    try:
        curve = disparity_curve(nets, config.flow, binning)
        files.append(_emit_table(outdir, "panel_disparity_curve",
                                 ["k_center", "mean_kY", "count"], zip(*curve.points),
                                 config.output_format))
        panel_fits["disparity"] = {"flow": curve.flow, "exponent": curve.exponent,
                                   "exponent_stderr": curve.exponent_stderr}
    except TradeNetError as exc:
        warnings.append(f"disparity curve skipped: {exc}")

    degrees = [k for net in nets for k in net.degrees.tolist()]
    degree_range = config.degree_fit_range
    if degree_range is None:
        ks = sorted(degrees)
        degree_range = (float(ks[len(ks) // 5]), float(ks[(9 * len(ks)) // 10]))
    try:
        dd = degree_distribution_from_degrees(degrees, degree_range)
        panel_fits["degree"] = {"gamma": dd.gamma, "fit_range": list(dd.fit_range)}
        files.append(_emit_table(outdir, "panel_degree_survival", ["k", "P_ge_k"],
                                 zip(*dd.survival), config.output_format))
    except TradeNetError as exc:
        warnings.append(f"degree survival fit skipped: {exc}")

    _write_atomic(outdir / "panel_fits.json", _json_text(panel_fits))
    files.append("panel_fits.json")
    return files


def _cmd_panel(args) -> int:
    return run_analyze(_config_from_args(args))


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        input_path=getattr(args, "input", "") or "",
        outdir=args.outdir,
        years=_parse_years(getattr(args, "years", None)),
        input_format=getattr(args, "format", "csv"),
        output_format=args.output_format,
        on_duplicate=getattr(args, "on_duplicate", "mean"),
        missing=getattr(args, "missing", "zero"),
        flow=getattr(args, "flow", "total"),
        bins_per_decade=getattr(args, "bins_per_decade", 10),
        fit_decades=getattr(args, "fit_decades", 2.5),
        fit_range=_parse_float_range(getattr(args, "fit_range", None)),
        collapse_bins_per_decade=getattr(args, "collapse_bins_per_decade",
                                         COLLAPSE_BINS_PER_DECADE),
        collapse_window=getattr(args, "collapse_window", 2.0),
        disparity_bins_per_decade=getattr(args, "disparity_bins_per_decade", 8),
        disparity_min_count=getattr(args, "disparity_min_count", 3),
        exp_fit_range=_parse_float_range(getattr(args, "exp_fit_range", None))
        or (0.05, 0.9),
        emit_every=getattr(args, "emit_every", 1),
        threshold=getattr(args, "threshold", 0.5),
        degree_fit_range=_parse_float_range(getattr(args, "degree_fit_range", None)),
    )


def _config_dict(config: RunConfig) -> dict:
    doc = asdict(config)
    doc.pop("outdir", None)  # two runs into different directories must match
    return doc


def _ensure_outdir(outdir: str) -> Path:
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Argument parsing


def _add_io_arguments(parser, needs_input=True):
    if needs_input:
        parser.add_argument("--input", required=True,
                            help="dyadic CSV/TSV file, snapshot JSON, or snapshot directory")
        parser.add_argument("--format", choices=("csv", "tsv"), default="csv",
                            help="delimiter of dyadic record files")
        parser.add_argument("--years", default=None,
                            help="year selection: all (default), 1950, 1948:1960, or 1948,1950")
        parser.add_argument("--on-duplicate", dest="on_duplicate",
                            choices=("mean", "first", "max"), default="mean",
                            help="how to resolve duplicate reports of one directed flow")
        parser.add_argument("--missing", choices=("zero", "copy"), default="zero",
                            help="how a one-sided flow report enters the symmetrizing average")
    parser.add_argument("--outdir", default=os.environ.get(OUTDIR_ENV, "."),
                        help=f"output directory (default: ${OUTDIR_ENV} or cwd)")
    parser.add_argument("--output-format", dest="output_format",
                        choices=("csv", "json"), default="csv",
                        help="format of tabular result files")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2, the
    form every other config error takes."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tradenet",
        description="Weighted trade-network analysis: build annual networks from "
                    "dyadic records and compute summary, metric, distribution, "
                    "percolation and rich-club results.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="whole-network summary per year")
    _add_io_arguments(p)
    p.set_defaults(func=_cmd_summary)

    p = sub.add_parser("metrics", help="per-node metrics and disparity curve")
    _add_io_arguments(p)
    p.add_argument("--flow", choices=("total", "export", "import"), default="total")
    p.add_argument("--disparity-bins-per-decade", type=int, default=8)
    p.add_argument("--disparity-min-count", type=int, default=3)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("fit", help="weight histogram, power-law and log-normal fits")
    _add_io_arguments(p)
    p.add_argument("--weights", default=None,
                   help="plain text file of weights (one per line) instead of --input")
    p.add_argument("--bins-per-decade", type=int, default=10)
    p.add_argument("--fit-range", default=None, help="power-law fit window, LO:HI")
    p.add_argument("--fit-decades", type=float, default=2.5,
                   help="width of the default fit window in decades")
    p.add_argument("--collapse-bins-per-decade", type=int,
                   default=COLLAPSE_BINS_PER_DECADE)
    p.add_argument("--collapse-window", type=float, default=2.0,
                   help="central region half-width in sigmas for collapse_mse")
    p.set_defaults(func=_cmd_fit)
    # --input is only required when --weights is absent; enforced in _cmd_fit.
    for action in p._actions:
        if action.dest == "input":
            action.required = False

    p = sub.add_parser("percolate", help="weight-ordered giant-component growth")
    _add_io_arguments(p)
    p.add_argument("--order", choices=("desc", "asc", "both"), default="both")
    p.add_argument("--emit-every", type=int, default=1,
                   help="write every n-th point of the curve")
    p.add_argument("--fit", default=None,
                   help="also fit the exponential approach over f range LO:HI")
    p.set_defaults(func=_cmd_percolate)

    p = sub.add_parser("richclub", help="rich-club curve and series")
    _add_io_arguments(p)
    p.add_argument("--threshold", type=float, default=0.5,
                   help="fraction of world trade defining the club")
    p.set_defaults(func=_cmd_richclub)

    p = sub.add_parser("synth", help="generate gravity-model synthetic data")
    p.add_argument("--countries", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--gdp-logmean", type=float, default=0.0)
    p.add_argument("--gdp-logsd", type=float, default=1.0)
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--noise-logsd", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--year", type=int, default=2000)
    p.add_argument("--years", default=None, help="panel years, e.g. 1948:2000")
    p.add_argument("--n-multiplier", type=float, default=1.0)
    p.add_argument("--gdp-multiplier", type=float, default=1.0)
    p.add_argument("--n-final", type=int, default=None,
                   help="grow the country count to this value by the last year")
    p.add_argument("--gdp-scale-final", type=float, default=None,
                   help="total GDP scale growth across the panel")
    p.add_argument("--dyadic", default=None, help="write a dyadic CSV here")
    p.add_argument("--snapshot-dir", default=None,
                   help="write per-year snapshot JSON files here")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("panel", help="full pipeline over all requested years")
    _add_io_arguments(p)
    p.add_argument("--flow", choices=("total", "export", "import"), default="total")
    p.add_argument("--bins-per-decade", type=int, default=10)
    p.add_argument("--fit-range", default=None)
    p.add_argument("--fit-decades", type=float, default=2.5)
    p.add_argument("--collapse-bins-per-decade", type=int,
                   default=COLLAPSE_BINS_PER_DECADE)
    p.add_argument("--collapse-window", type=float, default=2.0)
    p.add_argument("--disparity-bins-per-decade", type=int, default=8)
    p.add_argument("--disparity-min-count", type=int, default=3)
    p.add_argument("--exp-fit-range", default="0.05:0.9",
                   help="f range for the percolation exponential fit")
    p.add_argument("--emit-every", type=int, default=1)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--degree-fit-range", default=None,
                   help="k range for the pooled degree survival fit")
    p.set_defaults(func=_cmd_panel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fit" and not args.weights and not args.input:
        parser.error("fit needs --input or --weights")
    try:
        return args.func(args)
    except (TradeNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
