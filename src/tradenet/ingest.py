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
year of that into a network.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import functools
import io
import itertools
import math
import os
import stat
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._procs import _forked, _usable_cpus
from ._text import (_atomic_file, _delimiter, _edge_text, _not_utf8, _write_network_rows,
                    _write_table)
from .errors import DomainError, ParseError, ValidationError

HEADER = ("year", "reporter", "partner", "export", "import")

DUPLICATE_POLICIES = ("mean", "first", "max")

# Flow slots of a canonical pair (a, b), a < b, as columns of PairedColumns.flows.
FLOW_SLOTS = ("exp_ab", "imp_ab", "exp_ba", "imp_ba")

# Characters (or bytes) read from the input at a time.  Every cell of a
# block becomes a Python str, so a larger block raises peak memory.
_READ_BLOCK = 1 << 16

# Rows per chunk that csv.reader hands to the column builder.
_BLOCK_ROWS = 4096

# Files smaller than this are read by one process.  On a 2-CPU host, reading
# in two byte ranges broke even at about 512 KiB and won every time from
# 1 MiB; forking costs more in a process that holds more memory.
_SPLIT_MIN_BYTES = 1 << 20


@dataclass(frozen=True)
class DyadicColumns:
    """Dyadic records as columns, one entry per data row in input order.

    ``year`` indexes ``years`` and ``reporter``/``partner`` index ``codes``;
    both tables are sorted, so comparing two code indices compares the codes
    in plain string order.  The reader makes these three columns int32, and
    pair_columns takes any integer dtype.  ``exports``/``imports`` are
    float64 with NaN where the cell was empty.  The reader builds them from
    parts whose tables are not sorted (see _ColumnBuilder.finish and
    _merged).
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
    ``b`` index ``years`` and ``codes`` as in DyadicColumns: int32, or
    int64 when ``4 * len(years) * len(codes) ** 2`` reaches 2**31 or the
    input holds 2**31 rows (see _sorted_reports).  ``flows`` has one column
    per FLOW_SLOTS entry, NaN where no positive report exists.
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
    the rest (see _plain_lines).  A path to a large file may be read in
    byte ranges by several processes (see _read_ranges), to the same
    columns or, failing that, read again as above.
    """
    delimiter = _delimiter(fmt)
    if not hasattr(source, "read"):
        cols = _read_ranges(source, delimiter)
        if cols is not None:
            return cols
    with contextlib.nullcontext(source) if hasattr(source, "read") else open(source, "rb") as fh:
        blocks = _text_blocks(fh)
        first = next(blocks, None)
        if first is None:
            raise ParseError("missing header row", line=1)
        builder = _ColumnBuilder()
        rest = _add_plain_blocks(builder, itertools.chain([first], blocks), delimiter, 1)
        if rest is not None:
            # A quoted field may run on into the next block.
            block, lineno = rest
            _read_csv(builder, _csv_lines(block, blocks), delimiter, lineno)
        return _merged([builder.finish()])


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
    resolved = _resolved(cell, value, starts, ends, on_duplicate)
    del value  # free each full-size array once used: pairing is where ingest peaks
    cell = cell[starts]
    del starts, ends
    pair_starts, pair_ends = _runs(cell // 4)
    pairs = cell[pair_starts] // 4
    flows = np.full((len(pairs), len(FLOW_SLOTS)), np.nan)
    row = np.repeat(np.arange(len(pairs), dtype=cell.dtype), pair_ends - pair_starts)
    flows[row, cell % 4] = resolved
    return PairedColumns(cols.years, cols.codes, pairs // n_codes // n_codes,
                         pairs // n_codes % n_codes, pairs % n_codes, flows)


def _resolved(cell, value, starts, ends, on_duplicate: str) -> np.ndarray:
    """The resolved value of each run of ``cell``, whose reports are
    ``value[starts[i]:ends[i]]`` in input order (see pair_columns).

    A cell with one report takes its value.  Only the reports of cells
    with several are sorted by value, so that each such cell's mean is
    summed in ascending order.  The full-size temporaries are freed before
    the result is made.
    """
    if on_duplicate == "first":
        return value[starts]
    sizes = ends - starts
    multi = sizes > 1
    reports = np.repeat(multi, sizes)
    several = np.flatnonzero(multi)
    sizes = sizes[several]
    values = value[reports]
    values = values[np.lexsort((values, cell[reports]))]  # ascending in each cell
    del multi, reports
    if on_duplicate == "mean":
        group = np.repeat(np.arange(len(several)), sizes)
        merged = np.bincount(group, weights=values, minlength=len(several)) / sizes
    else:
        merged = values[np.cumsum(sizes) - 1]
    resolved = value[starts]
    resolved[several] = merged
    return resolved


def _sorted_reports(cols: DyadicColumns, n_codes: int) -> tuple[np.ndarray, np.ndarray]:
    """Every report > 0 as (cell key, value), sorted by cell, the reports
    of a cell in input order.

    The cell key is ``4 * pair + slot`` with ``pair`` numbering (year, a, b)
    and ``slot`` indexing FLOW_SLOTS: the export goes to exp_ab, or to
    exp_ba when the reporter is b; the import to the slot after it.  A
    report's position is its index in the exports followed by the imports.
    A cell is fed by one column only, so its reports in input order are
    its reports in position order.

    The cell keys are int32 while every one fits, and while every position
    fits in 32 bits.  Then ``cell << 32 | position`` is unique, and sorting
    it in any way gives that order.  Otherwise int64 cell keys are sorted
    stably.
    """
    n = len(cols.year)
    narrow = 4 * len(cols.years) * n_codes ** 2 < 2 ** 31 and 2 * n < 2 ** 32
    cell = np.empty(2 * n, np.int32 if narrow else np.int64)
    export = cell[:n]  # 4 * pair + 2 * (reporter is b), built in place
    export[:] = cols.year
    export *= n_codes
    export += np.minimum(cols.reporter, cols.partner)
    export *= n_codes
    export += np.maximum(cols.reporter, cols.partner)
    export *= 2
    export += cols.reporter > cols.partner
    export *= 2
    np.add(export, 1, out=cell[n:])
    del export
    value = np.concatenate([cols.exports, cols.imports])
    position = np.flatnonzero(value > 0)
    cell = cell[position]
    if narrow:
        key = cell.astype(np.int64)
        del cell
        key <<= 32
        key |= position
        del position
        key.sort()
        cell = np.right_shift(key, 32, out=np.empty(len(key), np.int32), casting="unsafe")
        position = np.bitwise_and(key, 0xFFFFFFFF, out=key)
    else:
        order = np.argsort(cell, kind="stable")
        cell, position = cell[order], position[order]
    return cell, value[position]


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the runs of equal values in sorted ``keys``."""
    change = np.ones(len(keys) + 1, dtype=bool)
    change[1:-1] = keys[1:] != keys[:-1]
    bounds = np.flatnonzero(change)
    return bounds[:-1], bounds[1:]


def write_network_records(nets: Iterable, dest, fmt: str = "csv") -> None:
    """Write networks as consistent double-reported dyadic rows to ``dest``,
    an open file, or a path, which is written atomically.

    Each edge (a, b) becomes a's report and b's mirror report of the same
    two flows, so reading the file back and symmetrizing rebuilds every
    network bit for bit.  A zero flow weight is written as an empty cell.
    """
    delimiter = _delimiter(fmt)
    with contextlib.nullcontext(dest) if hasattr(dest, "write") else _atomic_file(dest) as fh:
        _write_table(fh, HEADER, [], fmt)
        for net in nets:
            _write_network_rows(fh, net, _edge_text(net), delimiter)


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


def _add_plain_blocks(builder: _ColumnBuilder, blocks, delimiter: str, lineno: int):
    """Add the rows of ``blocks`` to ``builder`` up to the first block that
    is not plain, and return that block with the line of its first row, or
    None when every block was plain.  The first row is on line ``lineno``;
    on line 1 it is the header."""
    limit = csv.field_size_limit()
    for block in blocks:
        lines = _plain_lines(block, delimiter, limit)
        if lines is None:
            return block, lineno
        if lineno == 1:
            _check_header(lines.pop(0).split(delimiter))
            lineno = 2
        _add_lines(builder, lines, delimiter, lineno)
        lineno += len(lines)
    return None


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
    if cells:  # one byte-order mark, as Excel's "CSV UTF-8" writes, may lead the file
        cells = [cells[0].removeprefix("\ufeff"), *cells[1:]]
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
    """Turns columns of raw cells into a DyadicColumns part (see finish),
    interning years and codes.

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
        year = np.fromiter(map(self._year_ids.__getitem__, year_cells), np.int32, n)
        reporter = np.fromiter(map(self._code_ids.__getitem__, reporter_cells), np.int32, n)
        partner = np.fromiter(map(self._code_ids.__getitem__, partner_cells), np.int32, n)
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
        """The rows added, as a part for _merged: ``years`` and ``codes`` hold
        the year and the stripped code of each raw cell text in first-seen
        order, so a value may repeat, and the index columns index them."""
        year, reporter, partner, exports, imports = self._columns
        return DyadicColumns(tuple(self._year_of), tuple(map(str.strip, self._code_ids)),
                             _drain(year, np.int32), _drain(reporter, np.int32),
                             _drain(partner, np.int32), _drain(exports, np.float64),
                             _drain(imports, np.float64))


def _drain(pieces: list[np.ndarray], dtype=None) -> np.ndarray:
    """Concatenate ``pieces``, an empty ``dtype`` array for none, and empty
    the list.  A single piece is returned as it is, not copied."""
    out = pieces[0] if len(pieces) == 1 else (
        np.concatenate(pieces) if pieces else np.empty(0, dtype))
    pieces.clear()
    return out


def _interner() -> collections.defaultdict:
    """A dict that numbers each new key in insertion order on lookup."""
    ids = collections.defaultdict()
    ids.default_factory = ids.__len__
    return ids


def _flows(cells) -> np.ndarray:
    """Float64 flows with NaN for empty cells, each other cell read by
    float(); _Unclean unless every other cell is a finite number >= 0."""
    n_empty = cells.count("")
    if n_empty:
        cells = [cell or "nan" for cell in cells]
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        raise _Unclean from None
    if np.count_nonzero(~((values >= 0) & (values < math.inf))) != n_empty:
        raise _Unclean  # a nan, infinite or negative cell
    return values


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


# ---------------------------------------------------------------------------
# Byte-range reader: a large file is cut at line ends into one range per
# usable CPU.  This process reads the first range and a forked child each
# other one, all by the plain-block loop above; the parts are merged in file
# order.  A range that is not plain throughout, or holds a bad row, gives up,
# and the whole file is read again serially, so the csv.reader fallback and
# every error and line number stay the serial reader's.


def _read_ranges(path, delimiter: str) -> DyadicColumns | None:
    """The columns of the file at ``path``, read in byte ranges, or None
    when it is not split or a range gives up.

    A file is split when it is a regular file of at least _SPLIT_MIN_BYTES
    and this process may fork and run on more than one CPU.  It is cut into
    one range per usable CPU, each at least half _SPLIT_MIN_BYTES long.
    Every child is reaped before this returns or raises (see _forked).
    """
    cpus = _usable_cpus()
    try:
        info = os.stat(path)
    except OSError:
        return None  # the serial reader raises the error
    if (len(cpus) < 2 or not stat.S_ISREG(info.st_mode)
            or info.st_size < _SPLIT_MIN_BYTES):
        return None
    n_ranges = min(len(cpus), 2 * info.st_size // _SPLIT_MIN_BYTES)
    with open(path, "rb") as fh:
        fd = fh.fileno()
        bounds = _range_bounds(fd, info.st_size, n_ranges)
        if len(bounds) < 3:
            return None
        with _forked(functools.partial(_read_range, fd, delimiter),
                     [[span] for span in zip(bounds, bounds[1:])], cpus) as results:
            # No name here holds a part, so that _merged can free each one.
            parts = list(itertools.takewhile(lambda part: part is not None, results))
    if len(parts) < len(bounds) - 1:
        return None  # a range gave up; the serial reader gives the columns or the error
    return _merged(parts)


def _range_bounds(fd: int, size: int, n_ranges: int) -> list[int]:
    """0, a line start near each k * size / n_ranges for k = 1 .. n_ranges - 1,
    and ``size``, increasing, so a long line can leave fewer ranges."""
    bounds = [0]
    for k in range(1, n_ranges):
        pos = max(k * size // n_ranges, bounds[-1])
        while chunk := os.pread(fd, _READ_BLOCK, pos):
            found = chunk.find(b"\n")
            if found >= 0:
                if pos + found + 1 < size:
                    bounds.append(pos + found + 1)
                break
            pos += len(chunk)
    return bounds + [size]


def _read_range(fd: int, delimiter: str, span: tuple[int, int]) -> DyadicColumns | None:
    """The columns of the bytes [start, end) = ``span`` of the open file
    ``fd``, a range that starts a line, or None at the first block that is
    not plain or row that raises.

    The rows of a range after the first are numbered from line 2, not from
    their line in the file: an error there is never reported, since the
    whole file is then read again serially.
    """
    start, end = span
    builder = _ColumnBuilder()
    blocks = _text_blocks(_ByteRange(fd, start, end))
    try:
        rest = _add_plain_blocks(builder, blocks, delimiter, 1 if start == 0 else 2)
    except (ParseError, ValidationError):
        return None
    return builder.finish() if rest is None else None


class _ByteRange:
    """Reads bytes [start, end) of the open file ``fd`` with os.pread, so
    processes that share the descriptor do not share a file offset."""

    def __init__(self, fd: int, start: int, end: int):
        self._fd, self._pos, self._end = fd, start, end

    def read(self, size: int) -> bytes:
        data = os.pread(self._fd, min(size, self._end - self._pos), self._pos)
        self._pos += len(data)
        return data


def _merged(parts: list[DyadicColumns]) -> DyadicColumns:
    """The columns of consecutive parts of one text, in order, with the year
    and code indices of each mapped onto the sorted union of their tables.
    A part is a _ColumnBuilder.finish result, so its tables may repeat.

    Each column is written into one array of the total row count, but the
    flows of a single part, which are kept as they are.  ``parts`` is
    emptied, and each part's column is freed once it is written, so the
    merge holds no more than the parts and one joined column at a time.
    """
    years = sorted(set().union(*(part.years for part in parts)))
    codes = sorted(set().union(*(part.codes for part in parts)))
    year_rank = {y: i for i, y in enumerate(years)}
    code_rank = {c: i for i, c in enumerate(codes)}
    maps = [(np.array([year_rank[y] for y in part.years], dtype=np.int32),
             np.array([code_rank[c] for c in part.codes], dtype=np.int32)) for part in parts]
    pieces = [[part.year, part.reporter, part.partner, part.exports, part.imports]
              for part in parts]
    parts.clear()
    bounds = np.cumsum([0] + [len(piece[0]) for piece in pieces]).tolist()
    joined = []
    for k, dtype in enumerate((np.int32, np.int32, np.int32, np.float64, np.float64)):
        if k >= 3 and len(pieces) == 1:
            joined.append(pieces[0][k])
            continue
        out = np.empty(bounds[-1], dtype)
        for (year_map, code_map), piece, lo, hi in zip(maps, pieces, bounds, bounds[1:]):
            out[lo:hi] = piece[k] if k >= 3 else (year_map if k == 0 else code_map)[piece[k]]
            piece[k] = None
        joined.append(out)
    return DyadicColumns(tuple(years), tuple(codes), *joined)
