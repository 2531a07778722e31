"""Parsing and pairing of dyadic trade records.

Input files are delimited text (comma or tab) with the header row
``year,reporter,partner,export,import``.  Flow values are annual trade in
million USD; an empty cell means the flow was not reported.  Zero-valued
flows are treated as missing throughout: a reported zero cannot create a
link, since the network is defined by non-zero trade.  This zero-as-missing
convention is ours, not the data source's.

The work is done on columns: ``read_columns`` streams a file into
``DyadicColumns`` and ``pair_columns`` resolves every year's duplicate
reports at once into ``PairedColumns``.  ``parse_records``, ``pair_flows``,
``records_from_pairs`` and ``write_records`` are the per-record interface
over the same code.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, ParseError, ValidationError

HEADER = ("year", "reporter", "partner", "export", "import")

DUPLICATE_POLICIES = ("mean", "first", "max")

# Flow slots of a canonical pair (a, b), a < b, as columns of PairedColumns.flows.
FLOW_SLOTS = ("exp_ab", "imp_ab", "exp_ba", "imp_ba")

_DELIMITERS = {"csv": ",", "tsv": "\t"}

_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class DyadicRecord:
    """One reported directed flow pair between two countries in one year."""

    year: int
    reporter: str
    partner: str
    export_value: float | None
    import_value: float | None


@dataclass(frozen=True)
class PairedFlows:
    """The four reported flows for one unordered country pair in one year.

    ``country_a < country_b`` under plain string order.  ``exp_ab`` is a's
    reported export to b, ``imp_ab`` a's reported import from b, and the
    ``_ba`` fields are b's reports in the opposite direction.  At least one
    field is present and positive.
    """

    year: int
    country_a: str
    country_b: str
    exp_ab: float | None = None
    imp_ab: float | None = None
    exp_ba: float | None = None
    imp_ba: float | None = None


@dataclass(frozen=True)
class DyadicColumns:
    """Dyadic records as columns, one entry per data row in input order.

    ``year`` indexes ``years`` and ``reporter``/``partner`` index ``codes``;
    both tables are sorted, so comparing two code indices compares the codes
    in plain string order.  ``exports``/``imports`` are float64 with NaN
    where the cell was empty.
    """

    years: tuple[int, ...]
    codes: tuple[str, ...]
    year: np.ndarray
    reporter: np.ndarray
    partner: np.ndarray
    exports: np.ndarray
    imports: np.ndarray


@dataclass(frozen=True)
class PairedColumns:
    """Resolved flows of every (year, a, b) pair with a positive report.

    Rows are sorted by (year, a, b) with ``a < b``; ``year``, ``a`` and
    ``b`` index ``years`` and ``codes`` as in DyadicColumns.  ``flows`` has
    one column per FLOW_SLOTS entry, NaN where no positive report exists.
    """

    years: tuple[int, ...]
    codes: tuple[str, ...]
    year: np.ndarray
    a: np.ndarray
    b: np.ndarray
    flows: np.ndarray


def read_columns(source, fmt: str = "csv") -> DyadicColumns:
    """Parse a delimited text stream or file path into DyadicColumns.

    Accepts exactly what parse_records accepts and raises the same errors
    with the same line numbers; rows are streamed, never held as strings
    all at once.
    """
    delimiter = _DELIMITERS.get(fmt)
    if delimiter is None:
        raise DomainError(f"unknown input format {fmt!r}; expected one of {sorted(_DELIMITERS)}")
    fh, owned = _as_text(source)
    try:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing header row", line=1) from None
        if tuple(cell.strip() for cell in header) != HEADER:
            raise ParseError(f"expected header {','.join(HEADER)!r}", line=1)
        builder = _ColumnBuilder()
        lineno = 2
        while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
            builder.add(chunk, lineno)
            lineno += len(chunk)
        return builder.finish()
    finally:
        if owned:
            fh.close()


def parse_records(source, fmt: str = "csv") -> list[DyadicRecord]:
    """Parse dyadic records from a delimited text stream or file path.

    ``source`` may be a path or an open text/binary file.  Structural
    problems (wrong column count, non-numeric cells, bad header) raise
    ParseError; invariant violations (self-trade, negative or non-finite
    flows) raise ValidationError.  Both carry the 1-based line number.
    Row order is preserved.
    """
    cols = read_columns(source, fmt)
    years = [cols.years[i] for i in cols.year.tolist()]
    reporters = [cols.codes[i] for i in cols.reporter.tolist()]
    partners = [cols.codes[i] for i in cols.partner.tolist()]
    return list(map(DyadicRecord, years, reporters, partners,
                    _optional(cols.exports), _optional(cols.imports)))


def pair_columns(cols: DyadicColumns, on_duplicate: str = "mean") -> PairedColumns:
    """Resolve the reports of every year into one row per country pair.

    Each report lands in one slot of its canonical pair (FLOW_SLOTS).
    Values that are not > 0 (zeros, missing cells) are dropped first; the
    reports left in a slot resolve per ``on_duplicate``: their mean, summed
    in ascending value order so the result does not depend on row order;
    the first in input order; or the largest.  Pairs with no report left
    are not emitted.
    """
    _check_duplicate_policy(on_duplicate)
    n_codes = max(len(cols.codes), 1)
    cell, value = _sorted_reports(cols, n_codes)
    starts, ends = _runs(cell)
    if on_duplicate != "first":  # ascending values within each cell with several reports
        multi = np.repeat(ends - starts > 1, ends - starts)
        value[multi] = value[multi][np.lexsort((value[multi], cell[multi]))]
    if on_duplicate == "mean":
        group = np.repeat(np.arange(len(starts)), ends - starts)
        resolved = np.bincount(group, weights=value, minlength=len(starts)) / (ends - starts)
    elif on_duplicate == "first":
        resolved = value[starts]
    else:
        resolved = value[ends - 1]

    cell = cell[starts]
    pair_starts, pair_ends = _runs(cell // 4)
    pairs = cell[pair_starts] // 4
    flows = np.full((len(pairs), len(FLOW_SLOTS)), np.nan)
    flows[np.repeat(np.arange(len(pairs)), pair_ends - pair_starts), cell % 4] = resolved
    return PairedColumns(cols.years, cols.codes, pairs // n_codes // n_codes,
                         pairs // n_codes % n_codes, pairs % n_codes, flows)


def _sorted_reports(cols: DyadicColumns, n_codes: int) -> tuple[np.ndarray, np.ndarray]:
    """Every report > 0 as (cell key, value), sorted by cell and stable.

    The cell key is ``4 * pair + slot`` with ``pair`` numbering (year, a, b)
    and ``slot`` indexing FLOW_SLOTS: the export goes to exp_ab, or to
    exp_ba when the reporter is b; the import to the slot after it.  A
    cell is fed by one column only, so the stable sort keeps each cell's
    reports in input order.
    """
    pair = cols.year.astype(np.int64) * n_codes + np.minimum(cols.reporter, cols.partner)
    pair = pair * n_codes + np.maximum(cols.reporter, cols.partner)
    export_cell = 4 * pair + 2 * (cols.reporter > cols.partner)
    cell = np.concatenate([export_cell, export_cell + 1])
    value = np.concatenate([cols.exports, cols.imports])
    keep = value > 0
    cell, value = cell[keep], value[keep]
    order = np.argsort(cell, kind="stable")
    return cell[order], value[order]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the runs of equal values in sorted ``keys``."""
    change = np.ones(len(keys) + 1, dtype=bool)
    change[1:-1] = keys[1:] != keys[:-1]
    bounds = np.flatnonzero(change)
    return bounds[:-1], bounds[1:]


def pair_flows(records: Iterable[DyadicRecord], year: int,
               on_duplicate: str = "mean") -> list[PairedFlows]:
    """Collapse directed records for one year into canonical PairedFlows.

    Duplicate reports of the same directed flow resolve per ``on_duplicate``
    as in pair_columns: arithmetic mean of the reported values (default),
    summed in ascending value order so record order cannot change the
    result; first in input order; or maximum.  Zero flows are dropped
    before resolution.  Pairs with no positive flow at all are not emitted.
    Output is sorted by country pair.
    """
    _check_duplicate_policy(on_duplicate)
    records = list(records)
    for rec in records:
        if rec.year != year:
            raise ValidationError(f"record for year {rec.year} passed to pairing for {year}")
    paired = pair_columns(_columns_from_records(records), on_duplicate)
    codes = paired.codes
    flows = [_optional(column) for column in paired.flows.T]
    return [PairedFlows(year, codes[a], codes[b], *slots)
            for a, b, *slots in zip(paired.a.tolist(), paired.b.tolist(), *flows)]


def records_from_pairs(pairs: Iterable[PairedFlows]) -> list[DyadicRecord]:
    """Expand PairedFlows back into one record per reporting country.

    Inverse of pair_flows on duplicate-free data: re-pairing the output
    reproduces the same PairedFlows bit for bit.
    """
    records = []
    for pf in pairs:
        if pf.exp_ab is not None or pf.imp_ab is not None:
            records.append(DyadicRecord(pf.year, pf.country_a, pf.country_b,
                                        pf.exp_ab, pf.imp_ab))
        if pf.exp_ba is not None or pf.imp_ba is not None:
            records.append(DyadicRecord(pf.year, pf.country_b, pf.country_a,
                                        pf.exp_ba, pf.imp_ba))
    return records


def write_records(records: Iterable[DyadicRecord], dest, fmt: str = "csv") -> None:
    """Write records as delimited text that parse_records reads back exactly.

    Floats are serialized with their shortest round-trip representation.
    """
    _write_rows(([rec.year, rec.reporter, rec.partner,
                  _flow_cell(rec.export_value), _flow_cell(rec.import_value)]
                 for rec in records), dest, fmt)


def write_network_records(nets: Iterable, dest, fmt: str = "csv") -> None:
    """Write networks as consistent double-reported dyadic rows.

    Each edge (a, b) becomes a's report and b's mirror report of the same
    two flows, so reading the file back and symmetrizing rebuilds every
    network bit for bit.  A zero flow weight is written as an empty cell.
    The bytes equal write_records(records_from_pairs(network_to_pairs(net)))
    over the networks in order.
    """
    def rows():
        for net in nets:
            year = itertools.repeat(net.year)
            a = [net.nodes[i] for i in net.a.tolist()]
            b = [net.nodes[i] for i in net.b.tolist()]
            exp = [repr(v) if v else "" for v in net.w_exp.tolist()]
            imp = [repr(v) if v else "" for v in net.w_imp.tolist()]
            yield from itertools.chain.from_iterable(
                zip(zip(year, a, b, exp, imp), zip(year, b, a, imp, exp)))

    _write_rows(rows(), dest, fmt)


def _write_rows(rows, dest, fmt: str) -> None:
    delimiter = _DELIMITERS.get(fmt)
    if delimiter is None:
        raise DomainError(f"unknown input format {fmt!r}; expected one of {sorted(_DELIMITERS)}")
    fh, owned = _as_writable(dest)
    try:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)
    finally:
        if owned:
            fh.close()


def _flow_cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def _optional(values: np.ndarray) -> list[float | None]:
    """Python floats of a flow column, None where it holds NaN."""
    return [None if math.isnan(v) else v for v in values.tolist()]


def _check_duplicate_policy(on_duplicate: str) -> None:
    if on_duplicate not in DUPLICATE_POLICIES:
        raise DomainError(
            f"unknown duplicate policy {on_duplicate!r}; expected one of {DUPLICATE_POLICIES}")


def _columns_from_records(records: list[DyadicRecord]) -> DyadicColumns:
    years = sorted({rec.year for rec in records})
    codes = sorted({c for rec in records for c in (rec.reporter, rec.partner)})
    year_id = {y: i for i, y in enumerate(years)}
    code_id = {c: i for i, c in enumerate(codes)}

    return DyadicColumns(
        tuple(years), tuple(codes),
        np.array([year_id[rec.year] for rec in records], dtype=np.intp),
        np.array([code_id[rec.reporter] for rec in records], dtype=np.intp),
        np.array([code_id[rec.partner] for rec in records], dtype=np.intp),
        np.array([rec.export_value for rec in records], dtype=np.float64),
        np.array([rec.import_value for rec in records], dtype=np.float64))


class _Unclean(Exception):
    """A chunk needs the row-by-row checks of _parse_row."""


class _ColumnBuilder:
    """Turns chunks of csv rows into columns, interning years and codes.

    Cells are interned by their raw text; each new raw text is checked and
    mapped once (year to int, code to its stripped form), so ``" USA"`` and
    ``"USA"`` become the same country.  A chunk that fails a cheap check
    is parsed again row by row with _parse_row, which raises the exact
    error of the first bad row or yields cleaned cells.
    """

    def __init__(self):
        self._year_ids = _interner()  # raw year text -> raw year id
        self._code_ids = _interner()  # raw code text -> raw code id
        self._country_ids = _interner()  # stripped code -> country id
        self._year_of: list[int] = []  # raw year id -> year
        self._country_of: list[int] = []  # raw code id -> country id
        # One array per chunk for each of: raw year id, raw reporter id, raw
        # partner id, export, import.
        self._columns: tuple[list[np.ndarray], ...] = ([], [], [], [], [])

    def add(self, rows: list[list[str]], lineno: int) -> None:
        try:
            self._add_clean(rows)
        except _Unclean:
            self._add_clean([_clean_row(row, k) for k, row in enumerate(rows, start=lineno)
                             if row])

    def _add_clean(self, rows) -> None:
        """Add the rows, or raise _Unclean if a cheap check fails.

        Checks that can fail after the interners have grown (a bad year or
        code, a self-trade) are ones _parse_row also fails, so the retry in
        add raises and the half-grown state is never used.
        """
        lengths = set(map(len, rows))
        if 0 in lengths:
            rows = [row for row in rows if row]
            lengths.discard(0)
        if not rows:
            return
        if lengths != {5}:
            raise _Unclean
        year_cells, reporter_cells, partner_cells, export_cells, import_cells = zip(*rows)
        exports = _flow_column(export_cells)
        imports = _flow_column(import_cells)
        n = len(rows)
        known_years, known_codes = len(self._year_of), len(self._country_of)
        year = np.fromiter(map(self._year_ids.__getitem__, year_cells), np.intp, n)
        reporter = np.fromiter(map(self._code_ids.__getitem__, reporter_cells), np.intp, n)
        partner = np.fromiter(map(self._code_ids.__getitem__, partner_cells), np.intp, n)
        try:
            new_years = [int(cell) for cell in itertools.islice(self._year_ids, known_years, None)]
        except ValueError:
            raise _Unclean from None
        new_codes = [cell.strip() for cell in itertools.islice(self._code_ids, known_codes, None)]
        if "" in new_codes:
            raise _Unclean
        self._year_of += new_years
        self._country_of += map(self._country_ids.__getitem__, new_codes)
        country = np.array(self._country_of, dtype=np.intp)
        if (country[reporter] == country[partner]).any():
            raise _Unclean  # self-trade
        for pieces, values in zip(self._columns, (year, reporter, partner, exports, imports)):
            pieces.append(values)

    def finish(self) -> DyadicColumns:
        years = sorted(set(self._year_of))
        codes = sorted(self._country_ids)
        year_rank = {y: i for i, y in enumerate(years)}
        code_rank = {c: i for i, c in enumerate(codes)}
        year_map = np.array([year_rank[y] for y in self._year_of], dtype=np.intp)
        country_rank = np.array([code_rank[c] for c in self._country_ids], dtype=np.intp)
        code_map = country_rank[np.array(self._country_of, dtype=np.intp)]
        # One column at a time, each freeing its chunks, to keep the peak low.
        year_pieces, reporter_pieces, partner_pieces, export_pieces, import_pieces = self._columns
        year = year_map[_drain(year_pieces, np.intp)]
        reporter = code_map[_drain(reporter_pieces, np.intp)]
        partner = code_map[_drain(partner_pieces, np.intp)]
        exports = _drain(export_pieces, np.float64)
        imports = _drain(import_pieces, np.float64)
        return DyadicColumns(tuple(years), tuple(codes), year, reporter, partner,
                             exports, imports)


def _drain(pieces: list[np.ndarray], dtype) -> np.ndarray:
    """Concatenate ``pieces`` and empty the list."""
    out = np.concatenate(pieces) if pieces else np.empty(0, dtype)
    pieces.clear()
    return out


def _interner() -> collections.defaultdict:
    """A dict that numbers each new key in insertion order on lookup."""
    ids = collections.defaultdict()
    ids.default_factory = ids.__len__
    return ids


def _flow_column(cells: tuple[str, ...]) -> np.ndarray:
    """Float64 flows with NaN for empty cells; _Unclean unless every other
    cell is a finite number >= 0."""
    try:
        values = np.array([float(cell) if cell else math.nan for cell in cells])
    except ValueError:
        raise _Unclean from None
    if np.count_nonzero(~((values >= 0) & (values < math.inf))) != cells.count(""):
        raise _Unclean  # a nan, infinite or negative cell
    return values


def _clean_row(row: list[str], lineno: int) -> list[str]:
    rec = _parse_row(row, lineno)
    return [str(rec.year), rec.reporter, rec.partner,
            _flow_cell(rec.export_value), _flow_cell(rec.import_value)]


def _parse_row(row: list[str], lineno: int) -> DyadicRecord:
    if len(row) != 5:
        raise ParseError(f"expected 5 columns, got {len(row)}", line=lineno)
    year_s, reporter, partner, export_s, import_s = (cell.strip() for cell in row)
    try:
        year = int(year_s)
    except ValueError:
        raise ParseError(f"non-integer year {year_s!r}", line=lineno) from None
    if not reporter or not partner:
        raise ParseError("empty country code", line=lineno)
    export_value = _parse_flow(export_s, "export", lineno)
    import_value = _parse_flow(import_s, "import", lineno)
    if reporter == partner:
        raise ValidationError(f"self-trade reported for {reporter!r}", line=lineno)
    return DyadicRecord(year, reporter, partner, export_value, import_value)


def _parse_flow(cell: str, name: str, lineno: int) -> float | None:
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {name} value {cell!r}", line=lineno) from None
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{name} value must be finite and >= 0, got {cell}", line=lineno)
    return value


def _as_text(source):
    """Return (text file object, whether we own closing it)."""
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return io.StringIO(data), True
    return open(source, "r", encoding="utf-8", newline=""), True


def _as_writable(dest):
    if hasattr(dest, "write"):
        return dest, False
    return open(dest, "w", encoding="utf-8", newline=""), True
