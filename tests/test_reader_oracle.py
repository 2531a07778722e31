"""The block tokenizer reads dyadic text exactly as csv.reader does.

Random texts go through ``read_columns`` and through the row-by-row
``csv.reader`` reader kept in ``tests/reader_oracle.py``.  Both must give
the same DyadicColumns, floats compared by their bits, or raise the same
exception type with the same message and line.  Texts hold quoted fields
(with delimiters, quotes and line breaks inside), ``\\r\\n`` and lone
``\\r`` line ends, blank and whitespace-only lines, a last line without a
line end, padded codes, empty flow cells, flows such as ``1_0``, ``nan``,
``-0``, ``1e500`` and ``١``, wrong column counts and bad years, as CSV and
TSV.  Blocks and row chunks are drawn tiny, so quoted fields run on into
the next block, and the csv field size limit is sometimes lowered so long
lines leave the block path.
"""

from __future__ import annotations

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reader_oracle import oracle_read_columns
from tradenet import ingest
from tradenet.errors import ParseError, ValidationError
from tradenet.ingest import HEADER, read_columns

FORMATS = {"csv": ",", "tsv": "\t"}
# Each draw is clean (a cell or line that parses) or bad (one that fails),
# with a share of bad draws fixed per text, so most texts parse and some
# fail late.  Quotes and line ends are drawn per text too, so some texts
# are plain throughout and some are read by csv.reader from the first line.
YEARS = (["1990", "1991", " 1990", "1991 ", "1_990", "١٩٩٠"], ["19x0", "", "1e3"])
CODES = (["A", "B", "C", "D", " A", "B ", "Ñ", "A B", "A\u2028B", "A\x1cB"], ["", "  "])
QUOTED_CODES = ["A,B", "A\tB", 'A"B', "A\nB", "A\r\nB", "A\rB"]
FLOWS = (["1.5", "2", "0.1", "3e2", "", "", "0", "-0", "1_0", "١", " 2 ", "  ", "5e-324",
          "123456789"], ["nan", "1e500", "-1", "inf", "x"])
LINES = ([""], [" ", "\t", "1990", '"unterminated'])
LINE_ENDS = [["\n"], ["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r"]]


def quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def chance(draw, share: float) -> bool:
    """True at about ``share`` of the draws.  (A drawn float would not do:
    Hypothesis draws 0.0 and 1.0 far more often than their share.)"""
    return draw(st.sampled_from(range(100))) < 100 * share


@st.composite
def pick(draw, pools, bad_share):
    """A clean or, at ``bad_share`` of the draws, a bad entry of ``pools``."""
    clean, bad = pools
    return draw(st.sampled_from(bad if chance(draw, bad_share) else clean))


@st.composite
def line(draw, style):
    delimiter, bad_share, quote_share = style
    if draw(st.integers(0, 9)) == 0:
        return draw(pick(LINES, bad_share))
    codes = (CODES[0] + QUOTED_CODES if quote_share else CODES[0], CODES[1])
    reporter, partner = draw(st.lists(pick(codes, bad_share), min_size=2, max_size=2,
                                      unique_by=str.strip))
    row = [draw(pick(YEARS, bad_share)), reporter, partner,
           draw(pick(FLOWS, bad_share)), draw(pick(FLOWS, bad_share))]
    for k, text in enumerate(row):
        needs_quotes = any(c in text for c in (delimiter, '"', "\n", "\r"))
        # A bad draw may leave a cell unquoted that needs quotes.
        if needs_quotes and not chance(draw, bad_share) or (
                chance(draw, quote_share)):
            row[k] = quoted(text)
    if chance(draw, bad_share):
        if draw(st.booleans()):
            del row[draw(st.integers(0, 4))]
        else:
            row.insert(draw(st.integers(0, 5)), "1")
    return delimiter.join(row)


@st.composite
def texts(draw, delimiter):
    style = (delimiter, draw(st.sampled_from([0.0, 0.0, 0.02, 0.1, 0.5])),
             draw(st.sampled_from([0.0, 0.0, 0.1])))
    line_ends = draw(st.sampled_from(LINE_ENDS))
    header = delimiter.join(HEADER)
    if chance(draw, style[1]):
        header = draw(st.sampled_from([
            "", delimiter.join(map(quoted, HEADER)), " " + header, header + delimiter,
            '"year\n"' + header[4:], "year,reporter,partner,export", "\ufeff" + header]))
    body = draw(st.lists(line(style), max_size=12))
    text = ""
    for text_line in [header] + body:
        text += text_line + draw(st.sampled_from(line_ends))
    if draw(st.booleans()):  # the last line without a line end
        text = text.rstrip("\r\n")
    return text


def outcome(read):
    try:
        cols = read()
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc), exc.line
    return (cols.years, cols.codes,
            *((a.dtype.str, a.tolist()) for a in (cols.year, cols.reporter, cols.partner)),
            *(a.view(np.int64).tolist() for a in (cols.exports, cols.imports)))


def assert_same(text, fmt="csv", block_size=1 << 16, block_rows=4096, field_limit=None,
                as_bytes=False):
    delimiter = FORMATS[fmt]
    source = io.BytesIO(text.encode("utf-8")) if as_bytes else io.StringIO(text)
    old_limit = csv.field_size_limit(field_limit or csv.field_size_limit())
    try:
        want = outcome(lambda: oracle_read_columns(text, delimiter))
        with mock.patch.object(ingest, "_READ_BLOCK", block_size), \
                mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            got = outcome(lambda: read_columns(source, fmt))
    finally:
        csv.field_size_limit(old_limit)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(FORMATS)), st.sampled_from([1, 2, 3, 7, 16, 64, 1 << 16]),
       st.sampled_from([1, 2, 3, 4096]), st.sampled_from([None, 8, 40]), st.booleans())
def test_block_reader_matches_csv_reader(data, fmt, block_size, block_rows, field_limit,
                                         as_bytes):
    text = data.draw(texts(FORMATS[fmt]))
    assert_same(text, fmt, block_size, block_rows, field_limit, as_bytes)


H = ",".join(HEADER) + "\n"
EDGE_CASES = [
    (H + "\n\n1990,A,B,1,2\n1990,A, ,1,1\n", None),  # blank lines, then a bad row
    (H + "\r1990,A,B,1,2\n1990,A,A,1,1\n", None),  # a blank line ended by a lone \r
    (H + "1990,A,B,1\n2,1990,C,D,1,2\n", None),  # 3 and 5 delimiters on two lines
    (H + '1990,"A",A,1,1\n1990,A,B,123456789,1\n', 8),  # a bad row, then a too long field
    (H + "1990,A\x1cB,C\u2028D,1,2\n1990,A\x0bB,C\x85D,,3\r\n1990,B,C,  ,\n", None),
    (H + "1990,A,B,1,2\x1c1990,C,D,1,2\n", None),  # not a line end for csv.reader
    (" year , reporter,partner,export,import \n1990,A,B,1,2\n", None),
    ('"year","reporter","partner","export","import"\n1990,A,B,1,2\n', None),
]


@pytest.mark.parametrize("block_size", [1, 3, 1 << 16])
@pytest.mark.parametrize("text, field_limit", EDGE_CASES)
def test_edge_cases_match_csv_reader(text, field_limit, block_size):
    assert_same(text, block_size=block_size, field_limit=field_limit)


def float_per_cell():
    """read_columns as it runs where numpy fails the flow parse probe."""
    return mock.patch.object(ingest, "_numpy_parses_like_float", lambda: False)


@pytest.mark.parametrize("block_size", [1, 1 << 16])
@pytest.mark.parametrize("text, field_limit", EDGE_CASES)
def test_float_per_cell_edge_cases_match_csv_reader(text, field_limit, block_size):
    with float_per_cell():
        assert_same(text, block_size=block_size, field_limit=field_limit)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(sorted(FORMATS)), st.sampled_from([1, 7, 1 << 16]))
def test_float_per_cell_matches_csv_reader(data, fmt, block_size):
    text = data.draw(texts(FORMATS[fmt]))
    with float_per_cell():
        assert_same(text, fmt, block_size)


def test_parse_probe_rejects_a_numpy_that_parses_otherwise():
    real = np.array

    def flushing(cells, dtype=None):  # subnormals read as zero
        return real([0.0 if cell == "5e-324" else float(cell) for cell in cells], dtype)

    def strict(cells, dtype=None):  # no digit separators
        if "1_0" in cells:
            raise ValueError("could not convert string to float: '1_0'")
        return real(cells, dtype)

    for numpy_parse in (flushing, strict):
        ingest._numpy_parses_like_float.cache_clear()
        try:
            with mock.patch.object(np, "array", numpy_parse):
                assert not ingest._numpy_parses_like_float()
        finally:
            ingest._numpy_parses_like_float.cache_clear()
