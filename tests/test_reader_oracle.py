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

The same texts are also written to a file and read by path, with the size
below which a file is not split lowered to one byte, so that they are read
in byte ranges by forked children; the columns, or the error, must be the
serial reader's and the oracle's, and no child may be left behind.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_cpu_mask, usable_cpus
from reader_oracle import oracle_read_columns
from tradenet import _procs, ingest
from tradenet.errors import ParseError, ValidationError
from tradenet.ingest import HEADER, read_columns

FORMATS = {"csv": ",", "tsv": "\t"}
# Each draw is clean (a cell or line that parses) or bad (one that fails),
# with a share of bad draws fixed per text, so most texts parse and some
# fail late.  Quotes and line ends are drawn per text too, so some texts
# are plain throughout and some are read by csv.reader from the first line.
# A U+FEFF anywhere but before the header is data: part of a code, or a bad
# year or flow.
YEARS = (["1990", "1991", " 1990", "1991 ", "1_990", "١٩٩٠"], ["19x0", "", "1e3", "\ufeff1990"])
CODES = (["A", "B", "C", "D", " A", "B ", "Ñ", "A B", "A\u2028B", "A\x1cB", "\ufeffA"],
         ["", "  "])
QUOTED_CODES = ["A,B", "A\tB", 'A"B', "A\nB", "A\r\nB", "A\rB"]
FLOWS = (["1.5", "2", "0.1", "3e2", "", "", "0", "-0", "1_0", "١", " 2 ", "  ", "5e-324",
          "123456789"], ["nan", "1e500", "-1", "inf", "x", "\ufeff1"])
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
    if chance(draw, 0.1):
        header = "\ufeff" + header  # the byte-order mark of Excel's "CSV UTF-8"
    if chance(draw, style[1]):
        header = draw(st.sampled_from([
            "", delimiter.join(map(quoted, HEADER)), " " + header, header + delimiter,
            '"year\n"' + header[4:], "year,reporter,partner,export", "\ufeff\ufeff" + header,
            " \ufeff" + header, "year" + delimiter + "\ufeff" + header[5:]]))
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
    # One byte-order mark before the header is dropped; any other U+FEFF is
    # data: a second mark, one inside the header, a code or a year.
    ("\ufeff" + H + "1990,A,B,1,2\n", None),
    ("\ufeff\ufeff" + H + "1990,A,B,1,2\n", None),
    ("year,\ufeffreporter,partner,export,import\n1990,A,B,1,2\n", None),
    (H + "1990,\ufeffA,B,1,2\n1990,A,B,3,4\n", None),
    (H + "\ufeff1990,A,B,1,2\n", None),
]


@pytest.mark.parametrize("block_size", [1, 3, 1 << 16])
@pytest.mark.parametrize("text, field_limit", EDGE_CASES)
def test_edge_cases_match_csv_reader(text, field_limit, block_size):
    assert_same(text, block_size=block_size, field_limit=field_limit)


def float_per_cell():
    """read_columns with numpy's str-to-float parse refused: the flows must be
    read by float() per cell, whatever numpy's own parse would give."""
    real = np.array

    def refusing(obj, *args, **kwargs):
        if isinstance(obj, list) and any(isinstance(value, str) for value in obj):
            raise AssertionError("flow text handed to numpy")
        return real(obj, *args, **kwargs)

    return mock.patch.object(np, "array", refusing)


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


# ---------------------------------------------------------------------------
# Byte ranges read by forked children.

needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                reason="byte ranges are read only where a process can fork")


def read_by_path(data: bytes, fmt="csv", n_cpus=2, block_size=1 << 16, field_limit=None,
                 min_bytes=1):
    """The outcome of read_columns on a file holding ``data``, on ``n_cpus``
    usable CPUs; afterwards no child of this process may be left."""
    old_limit = csv.field_size_limit(field_limit or csv.field_size_limit())
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trade.txt"
            path.write_bytes(data)
            with mock.patch.object(ingest, "_SPLIT_MIN_BYTES", min_bytes), \
                    mock.patch.object(ingest, "_usable_cpus", lambda: usable_cpus(n_cpus)), \
                    mock.patch.object(ingest, "_READ_BLOCK", block_size):
                got = outcome(lambda: read_columns(path, fmt))
    finally:
        csv.field_size_limit(old_limit)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return got


def serial(data: bytes, fmt="csv"):
    return outcome(lambda: read_columns(io.BytesIO(data), fmt))


@needs_fork
@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(sorted(FORMATS)), st.sampled_from([1, 7, 1 << 16]),
       st.sampled_from([None, 8, 40]))
def test_byte_ranges_match_csv_reader(data, fmt, block_size, field_limit):
    text = data.draw(texts(FORMATS[fmt]))
    raw = text.encode("utf-8")
    old_limit = csv.field_size_limit(field_limit or csv.field_size_limit())
    try:
        want = outcome(lambda: oracle_read_columns(text, FORMATS[fmt]))
        assert serial(raw, fmt) == want
    finally:
        csv.field_size_limit(old_limit)
    for n_cpus in (2, 3):
        assert read_by_path(raw, fmt, n_cpus, block_size, field_limit) == want


ROWS = "".join(f"{1990 + k % 3},A{k % 7},B{k % 5},{k}.5,{k}\n" for k in range(60))
# Each text but the first three ends in a row that no range can read apart from
# the rest of the file, so it lies in the last range; a bad header lies in
# the first.
SPLIT_CASES = {
    "plain": (H + ROWS).encode(),
    "blank lines and CRLF": (H + ROWS + "\n\r\n1991,A0,B0,,7\r\n").encode(),
    # The first and last ranges spell a year and a code two ways each, so the
    # tables of their parts repeat values.
    "padded cells": (H + " 1990, A0 ,B0,1,2\n" + ROWS + "1990 ,B0, A0,3,4\n").encode(),
    "quoted field": (H + ROWS + '1990,"A0,B0",C,1,2\n').encode(),
    "lone CR": (H + ROWS + "1990,A0,B0,1,2\r1991,A0,B0,1,2\n").encode(),
    "self-trade": (H + ROWS + "1990,A0,A0,1,2\n").encode(),
    "bad flow": (H + ROWS + "1990,A0,B0,-1,2\n").encode(),
    "bad row, then a quoted field": (H + ROWS + '1990,A0\n1990,"A0",B0,1,2\n').encode(),
    "not UTF-8": (H + ROWS).encode() + b"1990,A\xff,B0,1,2\n",
    "bad header": (H.replace("import", "imports") + ROWS).encode(),
    "byte-order mark": ("\ufeff" + H + ROWS).encode(),
}
SPLIT_ERRORS = {"self-trade", "bad flow", "bad row, then a quoted field", "not UTF-8",
                "bad header"}


@needs_fork
@pytest.mark.parametrize("n_cpus", [2, 3])
@pytest.mark.parametrize("name", SPLIT_CASES)
def test_split_cases_match_serial_reader(name, n_cpus):
    data = SPLIT_CASES[name]
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        got = read_by_path(data, n_cpus=n_cpus)
    assert fork.call_count == n_cpus - 1
    assert got == serial(data)
    if name != "not UTF-8":
        assert got == outcome(lambda: oracle_read_columns(data.decode("utf-8")))
    assert (len(got) == 3) == (name in SPLIT_ERRORS)  # an error's type, message and line


@needs_fork
def test_a_large_file_with_a_byte_order_mark_is_split(tmp_path):
    """A file past the size at which it is split, led by a byte-order mark,
    is read in two byte ranges to the columns of the same rows without it."""
    rows = "".join(f"{1990 + k % 3},A{k % 97},B{k % 89},{k}.5,{k}\n" for k in range(40_000))
    data = ("\ufeff" + H + rows).encode()
    assert len(data) >= ingest._SPLIT_MIN_BYTES
    path = tmp_path / "trade.csv"
    path.write_bytes(data)
    with mock.patch.object(ingest, "_usable_cpus", lambda: usable_cpus(2)), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        got = outcome(lambda: read_columns(path))
    assert fork.call_count == 1
    assert got == serial(data) == serial((H + rows).encode())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_byte_ranges_give_the_serial_columns():
    """The split path, not the serial fallback, gives a plain file's columns."""
    data = SPLIT_CASES["plain"]
    with mock.patch.object(ingest, "_SPLIT_MIN_BYTES", 1), \
            mock.patch.object(ingest, "_usable_cpus", lambda: usable_cpus(3)), \
            mock.patch.object(ingest, "_ColumnBuilder", wraps=ingest._ColumnBuilder) as builder, \
            tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trade.csv"
        path.write_bytes(data)
        got = outcome(lambda: read_columns(path))
    assert builder.call_count == 1  # the first range's; no serial read after it
    assert got == serial(data)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("mask, min_bytes", [("one CPU", 1), ("all CPUs", 1 << 22)])
def test_no_fork_on_one_cpu_or_a_small_file(tmp_path, mask, min_bytes):
    path = tmp_path / "trade.csv"
    path.write_bytes(SPLIT_CASES["plain"])
    with one_cpu_mask() if mask == "one CPU" else mock.patch.object(
            ingest, "_usable_cpus", lambda: usable_cpus(2)), \
            mock.patch.object(ingest, "_SPLIT_MIN_BYTES", min_bytes), \
            mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert outcome(lambda: read_columns(path)) == serial(SPLIT_CASES["plain"])


@needs_fork
@pytest.mark.parametrize("failing", ["pickle.dump", "os.fork"])
def test_a_failed_fork_or_child_leaves_its_range_to_the_reader(failing):
    """A child that cannot send its part, or a fork refused, leaves its
    range to this process, not the file to the serial reader."""
    with mock.patch(failing, side_effect=OSError("no room")), \
            mock.patch.object(ingest, "_ColumnBuilder", wraps=ingest._ColumnBuilder) as builder:
        got = read_by_path(SPLIT_CASES["plain"])
    # One builder per range, both in this process; a serial read would add one.
    assert builder.call_count == 2
    assert got == serial(SPLIT_CASES["plain"])


@needs_fork
def test_children_are_killed_and_reaped_when_the_reader_stops(tmp_path):
    path = tmp_path / "trade.csv"
    path.write_bytes(SPLIT_CASES["plain"])
    parent, place = os.getpid(), _procs._place

    def interrupted(cpu, cpus):
        if os.getpid() == parent:  # the reader, after forking its children
            raise KeyboardInterrupt
        place(cpu, cpus)

    with mock.patch.object(ingest, "_SPLIT_MIN_BYTES", 1), \
            mock.patch.object(ingest, "_usable_cpus", lambda: usable_cpus(3)), \
            mock.patch.object(_procs, "_place", interrupted), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            pytest.raises(KeyboardInterrupt):
        read_columns(path)
    assert fork.call_count == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
