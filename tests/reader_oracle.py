"""Row-by-row reference reader for dyadic CSV/TSV text, kept as the tests'
oracle.

This is how the library read a dyadic file before its block tokenizer:
``csv.reader`` over the lines of the text (split as a file opened with
``newline=""`` splits them: at ``\\n``, ``\\r\\n`` and a lone ``\\r``), then
every row checked and parsed on its own.  The one addition is that a
``csv.Error`` is reported as a ParseError on the line of the row it hit, as
the library now does.  Line numbers count csv rows: the header is line 1
and a blank line is a row.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from tradenet.errors import ParseError, ValidationError
from tradenet.ingest import HEADER, DyadicColumns


def oracle_read_columns(text: str, delimiter: str = ",") -> DyadicColumns:
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    records = []
    lineno = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParseError(str(exc), line=lineno) from None
        if lineno == 1:
            if row:  # one leading byte-order mark is dropped
                row = [row[0].removeprefix("\ufeff"), *row[1:]]
            if tuple(cell.strip() for cell in row) != HEADER:
                raise ParseError(f"expected header {','.join(HEADER)!r}", line=1)
        elif row:
            records.append(_parse_row(row, lineno))
        lineno += 1
    if lineno == 1:
        raise ParseError("missing header row", line=1)
    return columns_of(records)


def _parse_row(row, lineno):
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
    return year, reporter, partner, export_value, import_value


def _parse_flow(cell, name, lineno):
    if cell == "":
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"non-numeric {name} value {cell!r}", line=lineno) from None
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{name} value must be finite and >= 0, got {cell}", line=lineno)
    return value


def columns_of(records) -> DyadicColumns:
    """DyadicColumns of (year, reporter, partner, export, import) records,
    with int32 index columns as the reader makes them; a missing flow is NaN
    or None."""
    years = sorted({rec[0] for rec in records})
    codes = sorted({code for rec in records for code in rec[1:3]})
    year_id = {y: i for i, y in enumerate(years)}
    code_id = {c: i for i, c in enumerate(codes)}

    def index(values, ids):
        return np.array([ids[v] for v in values], dtype=np.int32)

    return DyadicColumns(
        tuple(years), tuple(codes),
        index([rec[0] for rec in records], year_id),
        index([rec[1] for rec in records], code_id),
        index([rec[2] for rec in records], code_id),
        np.array([rec[3] for rec in records], dtype=np.float64),
        np.array([rec[4] for rec in records], dtype=np.float64))
