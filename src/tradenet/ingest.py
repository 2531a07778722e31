"""Parsing and pairing of dyadic trade records.

Input files are delimited text (comma or tab) with the header row
``year,reporter,partner,export,import``.  Flow values are annual trade in
million USD; an empty cell means the flow was not reported.  Zero-valued
flows are treated as missing throughout: a reported zero cannot create a
link, since the network is defined by non-zero trade.  This zero-as-missing
convention is ours, not the data source's.

The work is done on columns: ``read_columns`` streams a file into
``DyadicColumns`` and ``pair_columns`` resolves every year's duplicate
reports at once into ``PairedColumns``; graph.build_network turns one
year of that into a network.  ``write_network_records`` writes networks
back as dyadic rows, from the weight text (``_edge_text``) that a
network's snapshot is joined from too.  Text is written by one column-join
writer (``_write_columns``), which the CLI's tables and the snapshots use too.
"""

from __future__ import annotations

import collections
import csv
import functools
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

# Characters (or bytes) read from the input at a time.  Every cell of a
# block becomes a Python str, so a larger block raises peak memory.
_READ_BLOCK = 1 << 16

# Rows per write of the column-join writer, and per chunk that csv.reader
# hands to the column builder.
_BLOCK_ROWS = 4096


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

    ``source`` may be a path or an open text or binary file.  Structural
    problems (wrong column count, non-numeric cells, bad header) raise
    ParseError; invariant violations (self-trade, negative or non-finite
    flows) raise ValidationError.  Both carry the 1-based line number of
    the first bad row.  Row order is kept.  The text is read in blocks,
    never held all at once.  A block of plain text is split into columns
    directly; from the first block that is not plain on, csv.reader reads
    the rest (see _plain_lines).
    """
    delimiter = _delimiter(fmt)
    fh, owned = _as_readable(source)
    try:
        blocks = _text_blocks(fh)
        first = next(blocks, None)
        if first is None:
            raise ParseError("missing header row", line=1)
        builder = _ColumnBuilder()
        limit = csv.field_size_limit()
        lineno = 1  # the line of the block's first row
        for block in itertools.chain([first], blocks):
            lines = _plain_lines(block, delimiter, limit)
            if lines is None:
                # A quoted field may run on into the next block.
                _read_csv(builder, _csv_lines(block, blocks), delimiter, lineno)
                break
            if lineno == 1:
                _check_header(lines.pop(0).split(delimiter))
                lineno = 2
            _add_lines(builder, lines, delimiter, lineno)
            lineno += len(lines)
        return builder.finish()
    finally:
        if owned:
            fh.close()


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


def write_network_records(nets: Iterable, dest, fmt: str = "csv") -> None:
    """Write networks as consistent double-reported dyadic rows.

    Each edge (a, b) becomes a's report and b's mirror report of the same
    two flows, so reading the file back and symmetrizing rebuilds every
    network bit for bit.  A zero flow weight is written as an empty cell.
    """
    delimiter = _delimiter(fmt)
    fh, owned = _as_writable(dest)
    try:
        _write_columns(fh, HEADER, [], delimiter)
        for net in nets:
            _write_network_rows(fh, net, _edge_text(net), delimiter)
    finally:
        if owned:
            fh.close()


def _edge_text(net) -> list[str]:
    """The repr of each edge weight of ``net``: every ``w_exp``, then every
    ``w_imp``, in edge order.

    The dyadic rows and the snapshot of a network both take their weight
    cells from this list, so writing both formats formats each weight once.
    """
    return _float_cells(np.concatenate([net.w_exp, net.w_imp]))


def _write_network_rows(fh, net, weights: list[str], delimiter: str = ",") -> None:
    """Write the dyadic rows of ``net`` to ``fh``, with its ``_edge_text``
    as ``weights``; a zero flow is an empty cell."""
    fields = _csv_fields(net.nodes, delimiter)
    node = np.array([fields[code] for code in net.nodes], dtype=object)
    a, b = node[net.a].tolist(), node[net.b].tolist()
    exp, imp = weights[:len(a)], weights[len(a):]
    for cells, w in ((exp, net.w_exp), (imp, net.w_imp)):
        for i in np.flatnonzero(w == 0.0).tolist():
            cells[i] = ""
    year = [str(net.year)] * (2 * len(a))
    _write_lines(fh, [year, _interleave(a, b), _interleave(b, a),
                      _interleave(exp, imp), _interleave(imp, exp)], delimiter)


# ---------------------------------------------------------------------------
# Column-join text writer: each column is formatted once into cell strings,
# then rows are joined into lines and written in blocks of _BLOCK_ROWS.


def _write_columns(fh, header, columns, delimiter: str = ",") -> None:
    """Write a header row and a table given as columns to ``fh``, byte for
    byte as ``csv.writer(fh, delimiter=delimiter, lineterminator="\n")``
    writes the header and then the rows.

    A column is a numpy array or a sequence of cells; rows stop at the
    shortest column.  Float arrays are written as the repr of each value
    and int arrays as its str.  Other cells are written as csv.writer
    writes them: None as an empty cell and anything else as its str(),
    quoted as csv.writer quotes it.  The text of the whole table is never
    held at once.
    """
    columns = list(columns)
    fh.write(delimiter.join(_cells(header, delimiter, len(header))) + "\n")
    _write_lines(fh, [_cells(column, delimiter, len(columns)) for column in columns],
                 delimiter)


def _write_lines(fh, cells: list[list[str]], delimiter: str) -> None:
    """Join columns of cell strings into lines, _BLOCK_ROWS rows per write."""
    n_rows = min(map(len, cells), default=0)
    for lo in range(0, n_rows, _BLOCK_ROWS):
        rows = zip(*(column[lo:lo + _BLOCK_ROWS] for column in cells))
        fh.write("\n".join(map(delimiter.join, rows)) + "\n")


def _cells(column, delimiter: str, width: int) -> list[str]:
    """One column of a ``width``-column table as csv.writer writes its cells."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return _float_cells(column)
        # The str of an int, like the repr of a float, holds no delimiter,
        # quote or line break, so it needs no quoting.
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
        column = column.tolist()
    text = ["" if value is None else str(value) for value in column]
    fields = _csv_fields(text, delimiter, width)
    return list(map(fields.__getitem__, text))


def _float_cells(values: np.ndarray) -> list[str]:
    """The repr of each float, formatted once per distinct value.

    Values are keyed by their bits, so -0.0 keeps its sign.
    """
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


class _Rows(list):
    """A list csv.writer can write to: it gets one entry per row."""

    write = list.append


def _csv_fields(strings, delimiter: str, width: int = 2) -> dict[str, str]:
    """Each distinct string as csv.writer writes it as one field of a row of
    ``width`` fields.

    csv.writer is asked once per distinct string, so its quoting rules are
    not restated here.  The width matters only for the empty string, which
    csv.writer quotes when it is the only field of a row.
    """
    distinct = list(dict.fromkeys(strings))
    pad = [""] if width > 1 else []
    rows = _Rows()
    csv.writer(rows, delimiter=delimiter, lineterminator="\n").writerows(
        [s, *pad] for s in distinct)
    cut = len(pad) + 1  # the padding field's delimiter and the line end
    return dict(zip(distinct, (row[:-cut] for row in rows)))


def _interleave(first: list, second: list) -> list:
    """first[0], second[0], first[1], second[1], ..."""
    out = first + second
    out[::2] = first
    out[1::2] = second
    return out


def _delimiter(fmt: str) -> str:
    delimiter = _DELIMITERS.get(fmt)
    if delimiter is None:
        raise DomainError(f"unknown input format {fmt!r}; expected one of {sorted(_DELIMITERS)}")
    return delimiter


def _check_duplicate_policy(on_duplicate: str) -> None:
    if on_duplicate not in DUPLICATE_POLICIES:
        raise DomainError(
            f"unknown duplicate policy {on_duplicate!r}; expected one of {DUPLICATE_POLICIES}")


# ---------------------------------------------------------------------------
# Block tokenizer: the input is read _READ_BLOCK at a time and cut into
# blocks of whole lines.  A plain block is split into its five columns with
# str.split; any other text is read by csv.reader.  Both feed the same
# _ColumnBuilder, and both check rows that fail its cheap checks one by one
# with _parse_row, so errors and line numbers do not depend on the path.
# Line numbers count csv rows: the header is line 1 and a blank line is a
# row.


def _text_blocks(fh):
    r"""The text of ``fh`` in blocks of whole lines: every block but the last
    ends with "\n".

    ``fh`` is read _READ_BLOCK at a time, so a block is about that long, or
    longer when a line is.  Bytes are decoded as UTF-8.
    """
    pieces = []  # what was read of an unfinished line
    line = 1  # the line, counted by "\n", of the next block's first byte
    while chunk := fh.read(_READ_BLOCK):
        cut = chunk.rfind(b"\n" if isinstance(chunk, bytes) else "\n") + 1
        if not cut:
            pieces.append(chunk)
            continue
        block = chunk[:0].join([*pieces, chunk[:cut]])
        pieces = [chunk[cut:]]
        yield from _decoded(block, line)
        if isinstance(block, bytes):
            line += block.count(b"\n")
    if any(pieces):
        yield from _decoded(pieces[0][:0].join(pieces), line)


def _decoded(block, line: int):
    r"""Yield ``block`` as text, bytes decoded as UTF-8.  For a byte that is
    not UTF-8, the whole lines before it are yielded first, so an error in
    those rows is still reported first; then a ParseError names its line,
    counted by "\n" from ``line``."""
    if isinstance(block, bytes):
        try:
            block = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            good = block.rfind(b"\n", 0, exc.start) + 1
            if good:
                yield block[:good].decode("utf-8")
            raise _not_utf8(exc, line) from None
    yield block


def _read_utf8(path) -> str:
    """The text of the file at ``path``, which must be UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc) from None


def _not_utf8(exc: UnicodeDecodeError, line: int = 1) -> ParseError:
    r"""The error for input that is not UTF-8: the line of the first bad byte,
    counted by "\n" from ``line`` at the start of what was decoded."""
    return ParseError(f"input is not UTF-8 text ({exc.reason})",
                      line=line + exc.object.count(b"\n", 0, exc.start))


def _plain_lines(block: str, delimiter: str, limit: int) -> list[str] | None:
    r"""The rows of a plain block as lines without their line ends, or None.

    A block is plain when, once each "\r\n" is read as "\n", it holds no
    quote, "\r" or NUL, no line longer than ``limit`` (csv's field size
    limit) and exactly four delimiters on every line that is not blank.
    csv.reader then reads each line as its split at the delimiter and a
    blank line as an empty row, so the split can stand in for it.
    """
    if "\r" in block:
        block = block.replace("\r\n", "\n")
    if '"' in block or "\r" in block or "\0" in block:
        return None
    lines = block.split("\n")
    if not lines[-1]:
        lines.pop()  # after the last line end
    if len(block) > limit and max(map(len, lines), default=0) > limit:
        return None
    if (list(map(str.count, lines, itertools.repeat(delimiter))).count(4)
            + lines.count("") != len(lines)):
        return None
    return lines


def _add_lines(builder: _ColumnBuilder, lines: list[str], delimiter: str,
               lineno: int) -> None:
    """Add the rows of a plain block, the first on line ``lineno``."""
    data = [line for line in lines if line] if "" in lines else lines
    if data:
        cells = delimiter.join(data).split(delimiter)
        _add(builder, [cells[k::5] for k in range(5)],
             csv.reader(lines, delimiter=delimiter), lineno)


def _csv_lines(block: str, blocks):
    r"""The lines of ``block`` and the blocks after it, split where csv.reader
    ends a line: at "\n", "\r\n" and a lone "\r"."""
    return itertools.chain.from_iterable(
        io.StringIO(text, newline="") for text in itertools.chain([block], blocks))


def _read_csv(builder: _ColumnBuilder, lines, delimiter: str, lineno: int) -> None:
    """Add the rows csv.reader reads from ``lines``, the first on line
    ``lineno`` (line 1 is the header), _BLOCK_ROWS at a time."""
    failure: list[Exception] = []
    rows = _rows_until_error(csv.reader(lines, delimiter=delimiter), failure)
    if lineno == 1 and (header := next(rows, None)) is not None:
        _check_header(header)
        lineno = 2
    while chunk := list(itertools.islice(rows, _BLOCK_ROWS)):
        _add(builder, _row_columns(chunk), chunk, lineno)
        lineno += len(chunk)
    for exc in failure:
        if isinstance(exc, csv.Error):
            raise ParseError(str(exc), line=lineno) from None
        raise exc


def _rows_until_error(reader, failure: list):
    """The rows of ``reader`` up to the first error, which goes to
    ``failure``: the rows before it are checked first, so an error in them
    is reported first."""
    try:
        yield from reader
    except (csv.Error, ParseError) as exc:
        failure.append(exc)


def _row_columns(rows: list[list[str]]):
    """The cells of the rows that are not blank as five columns, or None
    unless each of them has five cells."""
    lengths = set(map(len, rows))
    if lengths - {0, 5}:
        return None
    if 0 in lengths:
        rows = [row for row in rows if row]
    return list(zip(*rows)) or [()] * 5


def _check_header(cells: list[str]) -> None:
    if tuple(cell.strip() for cell in cells) != HEADER:
        raise ParseError(f"expected header {','.join(HEADER)!r}", line=1)


def _add(builder: _ColumnBuilder, columns, rows, lineno: int) -> None:
    """Add five columns of raw cells to ``builder``.

    When ``columns`` is None or fails a cheap check, ``rows``, the same
    cells as csv rows with the first on line ``lineno``, are checked one by
    one with _parse_row instead: that raises the exact error of the first
    bad row, or yields cleaned cells, which are added.
    """
    if columns is not None:
        try:
            builder.add(columns)
            return
        except _Unclean:
            pass
    builder.add(_row_columns([_parse_row(row, k) for k, row in enumerate(rows, start=lineno)
                              if row]))


class _Unclean(Exception):
    """Cells need the row-by-row checks of _parse_row."""


class _ColumnBuilder:
    """Turns columns of raw cells into DyadicColumns, interning years and
    codes.

    Cells are interned by their raw text; each new raw text is checked and
    mapped once (year to int, code to its stripped form), so ``" USA"`` and
    ``"USA"`` become the same country.
    """

    def __init__(self):
        self._year_ids = _interner()  # raw year text -> raw year id
        self._code_ids = _interner()  # raw code text -> raw code id
        self._country_ids = _interner()  # stripped code -> country id
        self._year_of: list[int] = []  # raw year id -> year
        self._country_of: list[int] = []  # raw code id -> country id
        # One array per add for each of: raw year id, raw reporter id, raw
        # partner id, export, import.
        self._columns: tuple[list[np.ndarray], ...] = ([], [], [], [], [])

    def add(self, columns) -> None:
        """Add five equally long columns of cells (year, reporter, partner,
        export, import), or raise _Unclean if a cheap check fails.

        Checks that can fail after the interners have grown (a bad year or
        code, a self-trade) are ones _parse_row also fails, so the retry in
        _add raises and the half-grown state is never used.
        """
        year_cells, reporter_cells, partner_cells, export_cells, import_cells = columns
        n = len(year_cells)
        if not n:
            return
        exports = _flows(export_cells)
        imports = _flows(import_cells)
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
        # One column at a time, each freeing its pieces, to keep the peak low.
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


def _flows(cells) -> np.ndarray:
    """Float64 flows with NaN for empty cells; _Unclean unless every other
    cell is a finite number >= 0.

    numpy parses the cells in bulk when it parses strs as float() does
    (_numpy_parses_like_float); otherwise each cell goes through float().
    """
    n_empty = cells.count("")
    if n_empty:
        cells = [cell or "nan" for cell in cells]
    try:
        if _numpy_parses_like_float():
            values = np.array(cells, dtype=np.float64)
        else:
            values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        raise _Unclean from None
    if np.count_nonzero(~((values >= 0) & (values < math.inf))) != n_empty:
        raise _Unclean  # a nan, infinite or negative cell
    return values


# Flow cells that float() reads in ways a str-to-float parser may not: digit
# separators, non-ASCII digits, spelled-out and overflowing infinities,
# negative zero, the least subnormal, padding, and the "nan" of an empty cell.
_PROBE_FLOWS = ("1_0", "\u0661", "infinity", "1e500", "-0", "5e-324", " 2 ", "\t1.5\n",
                "nan", "0.1")


@functools.cache
def _numpy_parses_like_float() -> bool:
    """Whether numpy parses every _PROBE_FLOWS cell to float()'s bits.

    Checked once per process, on the first flows parsed.  The reader
    oracle test runs read_columns both ways.
    """
    try:
        parsed = np.array(_PROBE_FLOWS, dtype=np.float64)
    except ValueError:
        return False
    return parsed.tobytes() == np.fromiter(map(float, _PROBE_FLOWS), np.float64).tobytes()


def _parse_row(row: list[str], lineno: int) -> list[str]:
    """The five cells of one csv row, checked and cleaned: the year as the
    str of its int, the codes stripped and each flow as the repr of its
    float, or empty.  Raises the row's ParseError or ValidationError."""
    if len(row) != 5:
        raise ParseError(f"expected 5 columns, got {len(row)}", line=lineno)
    year_s, reporter, partner, export_s, import_s = (cell.strip() for cell in row)
    try:
        year = int(year_s)
    except ValueError:
        raise ParseError(f"non-integer year {year_s!r}", line=lineno) from None
    if not reporter or not partner:
        raise ParseError("empty country code", line=lineno)
    export_cell = _parse_flow(export_s, "export", lineno)
    import_cell = _parse_flow(import_s, "import", lineno)
    if reporter == partner:
        raise ValidationError(f"self-trade reported for {reporter!r}", line=lineno)
    return [str(year), reporter, partner, export_cell, import_cell]


def _parse_flow(cell: str, name: str, lineno: int) -> str:
    if cell == "":
        return ""
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {name} value {cell!r}", line=lineno) from None
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{name} value must be finite and >= 0, got {cell}", line=lineno)
    return repr(value)


def _as_readable(source):
    """Return (file object, whether we own closing it); a path is opened
    for reading bytes."""
    if hasattr(source, "read"):
        return source, False
    return open(source, "rb"), True


def _as_writable(dest):
    if hasattr(dest, "write"):
        return dest, False
    return open(dest, "w", encoding="utf-8", newline=""), True
