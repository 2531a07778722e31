"""The column-join text writers match csv.writer and json.dumps byte for
byte, and csv.reader reads their CSV and TSV back as the cells written.

Random networks go through write_network_records and snapshot_dumps, and
through the per-network steps synth shares between the two formats (one
weight-text list for a network's rows and then its snapshot); random
tables through the table writer, in CSV, TSV and JSON.  Codes and cells hold
delimiters, quotes, line breaks and non-ASCII letters; weights and cells
hold zeros, -0.0, 5e-324, 1e16 and 1e22; list cells hold None and numpy
scalars, and JSON cells also nan, ±inf and an int 0 among floats.  Rows,
snapshot edges included, are written in blocks, so the block size is drawn
small as well.
"""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tradenet import _text, ingest
from tradenet.graph import AnnualTradeNetwork, snapshot_dumps
from tradenet._text import _Coded
from tradenet.ingest import write_network_records
from writer_oracle import (json_table_text, network_records_text, network_rows, read_back,
                           snapshot_text, table_rows, table_text)

FORMATS = {"csv": ",", "tsv": "\t"}
ODD_CHARS = list('Ab1 ,"\'\n\r\t;é')
text = st.text(alphabet=st.sampled_from(ODD_CHARS), max_size=5)
codes = st.text(alphabet=st.sampled_from(ODD_CHARS), min_size=1, max_size=5)
SPECIAL = [0.0, -0.0, 5e-324, 1e16, 1e22, 0.1, 2.5]
weights = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1e300))
# Few values, so they repeat within and across the two flow columns, and
# zeros, so many edges carry a one-sided flow.
repeated_weights = st.sampled_from([0.0, 0.0, -0.0, 0.1, 0.1, 2.5, 1e22])
floats = st.one_of(st.sampled_from(SPECIAL + [-1e22, float("inf"), float("nan")]),
                   st.floats())
ints = st.integers(-2**63, 2**63 - 1)
block_rows = st.sampled_from([1, 2, 3, 4096])


@st.composite
def networks(draw, weights=weights):
    nodes = sorted(draw(st.lists(codes, min_size=2, max_size=7, unique=True)))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges = []
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
        w_exp, w_imp = draw(weights), draw(weights)
        if not w_exp + w_imp > 0.0:
            w_imp = 1.0
        edges.append((a, b, w_exp, w_imp))
    return AnnualTradeNetwork(draw(st.integers(1900, 2100)), *zip(*edges))


@st.composite
def columns(draw, n_rows):
    n = n_rows + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["float", "int", "str", "list"]))
    if kind == "float":
        return np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64)
    if kind == "int":
        return np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)
    if kind == "str":
        return np.array(draw(st.lists(text, min_size=n, max_size=n)), dtype=str)
    cell = st.one_of(st.none(), text, ints, floats, floats.map(np.float64),
                     ints.map(np.int64))
    return draw(st.one_of(st.lists(cell, min_size=n, max_size=n),
                          st.lists(cell, min_size=n, max_size=n).map(tuple)))


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 8))
    n_cols = draw(st.integers(0, 4))
    header = draw(st.lists(text, min_size=max(n_cols, 1), max_size=max(n_cols, 1)))
    return header, [draw(columns(n_rows)) for _ in range(n_cols)]


@settings(max_examples=300, deadline=None)
@given(tables(), st.sampled_from(sorted(FORMATS)), block_rows)
def test_tables_match_csv_writer(table, fmt, block):
    header, cols = table
    want = table_text(header, cols, FORMATS[fmt])
    with mock.patch.object(_text, "_BLOCK_ROWS", block):
        got = io.StringIO()
        _text._write_table(got, header, iter(cols), fmt)
    assert got.getvalue() == want
    assert read_back(got.getvalue(), FORMATS[fmt]) == table_rows(header, cols)


# JSON cells: every float json.dumps writes (NaN and Infinity too) and the
# int 0 that a degenerate node's strength cell holds among floats; keys hold
# "%", which the row template must escape.
json_keys = st.text(alphabet=st.sampled_from(ODD_CHARS + ["%", "\\"]), max_size=5)
json_cell = st.one_of(st.none(), text, st.just(0), ints, floats, floats.map(np.float64))


@st.composite
def json_columns(draw, n_rows):
    """A table column for the writer, and its cells as the oracle takes them."""
    n = n_rows + draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["float", "int", "str", "list", "coded"]))
    if kind == "coded":
        values, cells = draw(json_columns(draw(st.integers(1, 3))))
        index = draw(st.lists(st.integers(0, len(cells) - 1), min_size=n, max_size=n))
        return _Coded(values, np.array(index, dtype=np.intp)), [cells[i] for i in index]
    if kind == "list":
        cells = draw(st.lists(json_cell, min_size=n, max_size=n))
        return cells, cells
    column = np.array(draw(st.lists({"float": floats, "int": ints, "str": text}[kind],
                                    min_size=n, max_size=n)),
                      dtype={"float": np.float64, "int": np.int64, "str": str}[kind])
    return column, column.tolist()


@settings(max_examples=300, deadline=None)
@given(st.data(), block_rows)
def test_tables_match_json_dumps(data, block):
    n_rows = data.draw(st.integers(0, 8))
    header = data.draw(st.lists(json_keys, max_size=4, unique=True))
    columns = [data.draw(json_columns(n_rows)) for _ in header]
    with mock.patch.object(_text, "_BLOCK_ROWS", block):
        got = io.StringIO()
        _text._write_table(got, header, (column for column, _ in columns), "json")
    assert got.getvalue() == json_table_text(header, zip(*(cells for _, cells in columns)))


@settings(max_examples=200, deadline=None)
@given(st.lists(networks(), max_size=3), st.sampled_from(sorted(FORMATS)), block_rows)
def test_network_writers_match_csv_writer_and_json(nets, fmt, block):
    with mock.patch.object(_text, "_BLOCK_ROWS", block):
        direct = io.StringIO()
        write_network_records(iter(nets), direct, fmt)
        snapshots = list(map(snapshot_dumps, nets))
    assert direct.getvalue() == network_records_text(nets, FORMATS[fmt])
    assert read_back(direct.getvalue(), FORMATS[fmt]) == network_rows(nets)
    assert snapshots == list(map(snapshot_text, nets))


@settings(max_examples=200, deadline=None)
@given(networks(repeated_weights), st.sampled_from(sorted(FORMATS)), block_rows)
def test_shared_edge_text_matches_both_oracles(net, fmt, block):
    """One _edge_text list gives a network's dyadic rows (a zero flow is an
    empty cell) and then its snapshot (a zero flow is its repr)."""
    weights = _text._edge_text(net)
    rows = io.StringIO(FORMATS[fmt].join(ingest.HEADER) + "\n")
    rows.seek(0, io.SEEK_END)
    snapshot = io.StringIO()
    with mock.patch.object(_text, "_BLOCK_ROWS", block):
        _text._write_network_rows(rows, net, weights, FORMATS[fmt])
        _text._write_snapshot(snapshot, net, weights)
    assert rows.getvalue() == network_records_text([net], FORMATS[fmt])
    assert snapshot.getvalue() == snapshot_text(net)


def test_explicit_cases():
    one = AnnualTradeNetwork(1990, ["A,B", "A,B", "Line\nBreak"],
                             ['Say "Hi"', "Line\nBreak", "Ñandú"],
                             [-0.0, 1e16, 1e22], [5e-324, 0.0, 0.1])
    for fmt, delimiter in FORMATS.items():
        got = io.StringIO()
        write_network_records([one], got, fmt)
        assert got.getvalue() == network_records_text([one], delimiter)
        got = io.StringIO()
        write_network_records([], got, fmt)
        assert got.getvalue() == delimiter.join(ingest.HEADER) + "\n"
    assert snapshot_dumps(one) == snapshot_text(one)
    table = (["only"], [[None, "", np.float64(0.1), np.int64(3), -0.0, 1e22]])
    got = io.StringIO()
    _text._write_table(got, *table, "csv")
    assert got.getvalue() == table_text(*table) == 'only\n""\n""\n0.1\n3\n-0.0\n1e+22\n'
    for fmt, delimiter in FORMATS.items():  # a lone "\r" is quoted on every Python version
        got = io.StringIO()
        _text._write_table(got, ["code", "k"], [["A\rB", "C"], [1, 2]], fmt)
        assert got.getvalue() == f'code{delimiter}k\n"A\rB"{delimiter}1\nC{delimiter}2\n'
    got = io.StringIO()
    _text._write_table(got, ["s", "Y"], [[0, 2.5], [None, -0.0]], "json")
    assert got.getvalue() == json_table_text(["s", "Y"], [[0, None], [2.5, -0.0]]) == (
        '[\n  {\n    "Y": null,\n    "s": 0\n  },\n  {\n    "Y": -0.0,\n    "s": 2.5\n  }\n]\n')
    for columns in ([], [[]], [np.empty(0), [1.0]]):
        got = io.StringIO()
        _text._write_table(got, ["a", "b"], columns, "json")
        assert got.getvalue() == "[]\n"
