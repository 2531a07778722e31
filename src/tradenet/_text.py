"""The text the program writes, and the UTF-8 check of a file read whole.

Every text file, a table (``_write_table``), dyadic rows or a snapshot, is
written by one block loop (``_write_rows``), to a path atomically
(``_atomic_file``).  Forked children call these functions, so all are
private: the benchmark's tracer wraps every public one.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParseError

SNAPSHOT_FORMAT = "trade-network-snapshot"
SNAPSHOT_VERSION = 1

_DELIMITERS = {"csv": ",", "tsv": "\t"}

# Rows per write of the column-join writer.
_BLOCK_ROWS = 4096


def _delimiter(fmt: str) -> str:
    delimiter = _DELIMITERS.get(fmt)
    if delimiter is None:
        raise DomainError(f"unknown input format {fmt!r}; expected one of {sorted(_DELIMITERS)}")
    return delimiter


# ---------------------------------------------------------------------------
# Column-join text writer: each column is formatted once into cell strings,
# then rows are joined from them and written in blocks of _BLOCK_ROWS.


class _Coded(NamedTuple):
    """A table column whose row ``i`` holds ``values[index[i]]``, so that each
    of ``values`` is formatted once however many rows repeat it.  ``values``
    is a column as _write_table takes it."""

    values: object
    index: np.ndarray


def _write_table(fh, header, columns, fmt: str = "csv") -> None:
    r"""Write a table given as columns to ``fh`` as "csv", "tsv" or "json",
    byte for byte as csv.writer (``lineterminator="\r\n"``) writes the
    header and the rows, each line end then cut to "\n", or as
    ``json.dumps([dict(zip(header, row)) for row in rows], indent=2,
    sort_keys=True) + "\n"`` for distinct ``header`` names.

    A column is a numpy array, a _Coded column or a sequence of cells: None,
    numbers and strs; rows stop at the shortest column.  In CSV a float array
    cell is the repr of its value, an int array cell its str, None empty and
    anything else its str(), of which only a str's is ever quoted.  A JSON
    cell is json.dumps of its value, filled into one row template.
    """
    if fmt == "json":
        keyed = sorted(zip(header, columns), key=lambda item: item[0])
        template = "  {" + ",".join(f"\n    {json.dumps(key).replace('%', '%%')}: %s"
                                    for key, _ in keyed) + "\n  }"
        _write_rows(fh, [_cells(column, fmt, len(keyed)) for _, column in keyed],
                    template.__mod__, ",\n", ("[\n", "\n]\n"), "[]\n")
        return
    delimiter = _delimiter(fmt)
    columns = list(columns)
    fh.write(delimiter.join(_cells(header, fmt, len(header))) + "\n")
    _write_rows(fh, [_cells(column, fmt, len(columns)) for column in columns], delimiter.join)


def _write_rows(fh, cells: list[list[str]], row, sep: str = "\n",
                ends: tuple[str, str] = ("", "\n"), empty: str = "") -> None:
    """Write the rows of ``cells``, columns of cell strings that stop at the
    shortest, _BLOCK_ROWS rows per write: ``row`` of each row's cells, joined
    by ``sep`` between the two ``ends``, or ``empty`` for no row."""
    n_rows = min(map(len, cells), default=0)
    if not n_rows:
        fh.write(empty)
        return
    lead = ends[0]
    for lo in range(0, n_rows, _BLOCK_ROWS):
        rows = zip(*(column[lo:lo + _BLOCK_ROWS] for column in cells))
        fh.write(lead + sep.join(map(row, rows)))
        lead = sep
    fh.write(ends[1])


def _cells(column, fmt: str, width: int) -> list[str]:
    """One column of a ``width``-column table of format ``fmt`` as its cell
    texts (see _write_table)."""
    if isinstance(column, _Coded):
        cells = np.array(_cells(column.values, fmt, width), dtype=object)
        return cells[column.index].tolist()
    if fmt == "json":
        return list(map(json.dumps, column.tolist() if isinstance(column, np.ndarray) else column))
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return _float_cells(column)
        # The str of an int, like the repr of a float, holds no delimiter,
        # quote or line break, so it needs no quoting.
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
        column = column.tolist()
    text = ["" if value is None else str(value) for value in column]
    if width > 1 and not any(isinstance(value, str) for value in column):
        return text  # only a str can need quoting
    fields = _csv_fields(text, _delimiter(fmt), width)
    return list(map(fields.__getitem__, text))


def _float_cells(values: np.ndarray) -> list[str]:
    """The repr of each float of an array.  A column that repeats values
    is a _Coded column, which formats each of its values once."""
    return list(map(repr, values.tolist()))


class _Rows(list):
    """A list that text is written to, one entry per write: _write_rows
    writes one per block."""

    write = list.append


def _csv_fields(strings, delimiter: str, width: int = 2) -> dict[str, str]:
    r"""Each distinct string as one CSV field of a row of ``width`` fields.

    A field is quoted when it holds the delimiter, a quote, "\r" or "\n",
    or when it is empty and the only field of its row; a quote in it is
    doubled.  This is how csv.writer writes a field on every Python version
    when its line end holds "\r" and "\n".  With ``lineterminator="\n"``,
    Python 3.10-3.12 would leave a lone "\r" unquoted, and csv.reader would
    read that row back as two.
    """
    special = {delimiter, '"', "\r", "\n"}
    fields = {}
    for s in dict.fromkeys(strings):
        quoted = not special.isdisjoint(s) or (not s and width == 1)
        fields[s] = '"' + s.replace('"', '""') + '"' if quoted else s
    return fields


def _interleave(first: list, second: list) -> list:
    """first[0], second[0], first[1], second[1], ..."""
    out = first + second
    out[::2] = first
    out[1::2] = second
    return out


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
    _write_rows(fh, [year, _interleave(a, b), _interleave(b, a),
                     _interleave(exp, imp), _interleave(imp, exp)], delimiter.join)


def _write_snapshot(fh, net, weights: list[str]) -> None:
    """Write the snapshot document of ``net`` to ``fh``, with its
    ``_edge_text`` as ``weights``."""
    head = json.dumps({"format": SNAPSHOT_FORMAT, "version": SNAPSHOT_VERSION,
                       "year": net.year}, separators=(",", ":"))
    # The rest of json.dumps(doc, separators=(",", ":")) for the "nodes" and
    # "edges" members, joined from each code's JSON text and each weight's
    # repr (json.dumps writes a finite float as its repr).
    node = np.array([json.dumps(code) for code in net.nodes], dtype=object)
    head = f'{head[:-1]},"nodes":[{",".join(node.tolist())}],"edges":'
    n = net.n_links
    _write_rows(fh, [node[net.a].tolist(), node[net.b].tolist(), weights[:n], weights[n:]],
                ",".join, "],[", (head + "[[", "]]}\n"), head + "[]}\n")


def _synth_texts(rows: bool, snapshot: bool, net) -> tuple[list | None, list | None]:
    """The dyadic-row text and the snapshot text of ``net``, each as the list
    of strings it is written in, or None unless asked for.  Both take their
    weight cells from one _edge_text call."""
    weights = _edge_text(net)

    def text(write) -> list[str]:
        pieces = _Rows()
        write(pieces, net, weights)
        return pieces

    return (text(_write_network_rows) if rows else None,
            text(_write_snapshot) if snapshot else None)


@contextlib.contextmanager
def _atomic_file(path):
    """A text file written under a temporary name, moved to ``path`` when its
    ``with`` block ends without an error and removed on an error.  An error
    that names the removed temporary file is raised naming ``path``.  A
    ``path`` that exists and is not a regular file (a FIFO or a device, say,
    or a link to one) is written in place, so that it is not replaced.  A
    link to a regular file stays a link, and its target is replaced."""
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        in_place = False  # nothing there yet
    if in_place:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    real = os.path.realpath(path)
    tmp = real + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, real)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _write_job(path, header, body, output_format: str) -> None:
    """Write one file atomically: the table of ``header`` and the columns
    ``body``, or those a callable ``body`` returns, in ``output_format``, or
    the JSON text of ``body`` where ``header`` is None."""
    with _atomic_file(path) as fh:
        if header is None:
            fh.write(json.dumps(body, indent=2, sort_keys=True) + "\n")
        else:
            _write_table(fh, header, body() if callable(body) else body, output_format)


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
