"""The text the program writes, and the UTF-8 check of a file read whole.

Every text file, a table (``_write_table``), dyadic rows or a snapshot, is
written by one block loop (``_write_rows``), to a path atomically
(``_atomic_file``).  Forked children call these functions, so all are
private: the benchmark's tracer wraps every public one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import stat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParseError

SNAPSHOT_FORMAT = "trade-network-snapshot"
SNAPSHOT_VERSION = 1

_DELIMITERS = {"csv": ",", "tsv": "\t"}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # repr -> json.dumps

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
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        cells = _float_cells(column)
        if fmt == "json":  # json.dumps writes a finite float as its repr
            for i in np.flatnonzero(~np.isfinite(column)).tolist():
                cells[i] = _JSON_NONFINITE[cells[i]]
        return cells
    if fmt == "json":
        return list(map(json.dumps, column.tolist() if isinstance(column, np.ndarray) else column))
    if isinstance(column, np.ndarray):
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
    is a _Coded column, which formats each of its values once.  A float64
    array of _FLOAT_CUTOFF values or more goes through the kernel below."""
    if len(values) < _FLOAT_CUTOFF or values.dtype != np.float64:
        return list(map(repr, values.tolist()))
    cells = []
    for lo in range(0, len(values), _FLOAT_BLOCK):
        cells += _float_block(values[lo:lo + _FLOAT_BLOCK])
    return cells


# ---------------------------------------------------------------------------
# Float text: repr's shortest round-trip digits, found with exact integer
# arithmetic in numpy.  A value x with 1e-6 <= |x| < 1e16 that is not a power
# of two is scaled to P = |x| * 10**k in [1e16, 1e17) exactly, as an int64
# and a binary fraction; the decimals that read back as x are those within
# half a gap of x, a half-gap that scaled is exact and below 12.  repr writes
# the one with fewest digits, the nearest if several.  Every other value, and
# a value with two nearest candidates, is formatted by repr itself.

_FLOAT_CUTOFF = 384  # below this many values, repr alone is faster
_FLOAT_BLOCK = 1 << 13  # values per pass: its temporaries stay below 2 MiB


def _halves(a):
    """Veltkamp's split: a == high + low, each with at most 26 significant
    bits, so a product of two halves is exact."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_POW10_HIGH, _POW10_LOW = _halves(_POW10)
_POW2 = np.array([float(1 << k) for k in range(64)])
_POW5 = 5 ** np.arange(23, dtype=np.int64)
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)


def _float_template(exp10: int, nd: int, negative: int) -> str:
    """The 32-byte row of a value whose shortest digits d are ``nd`` long,
    d[0] the digit of 10**exp10, laid out as repr lays it out.  Digit i
    sits at byte 7 + i; a "D" takes it there, an "L" one byte later (after
    the decimal point), and the row's other bytes are as given."""
    head, tail = "", ""
    if exp10 < -4 or exp10 >= 16:
        body, tail = "D" + ("." + "L" * (nd - 1) if nd > 1 else ""), f"e{exp10:+03d}"
    elif exp10 < 0:
        head, body = "0." + "0" * (-exp10 - 1), "D" * nd
    else:
        body = "D" * (exp10 + 1) + "." + "L" * (max(nd, exp10 + 2) - exp10 - 1)
    return (("-" * negative + head).rjust(7) + body + tail).ljust(32)


@functools.cache
def _float_tables():
    """The kernel's tables, built at its first call, so that a command that
    writes no long float column neither builds nor holds them.  First the 4
    digit characters of 0..9999 as '<u4' (built in uint16: an int64
    temporary would be large enough for glibc to raise its mmap threshold
    and keep 1 MiB resident).  Then three (key, 4) '<u8' tables of the rows
    of _float_template, keyed by ((exp10 + 6) * 18 + nd) * 2 + negative:
    the bytes taken by "D", those taken by "L", and the rest of the row.
    Their last key is a "?" that marks a value repr formats."""
    digits4 = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    digits4 = (digits4 % 10 + ord("0")).astype(np.uint8).view("<u4").ravel()
    rows = [_float_template(e, nd, neg) for e in range(-6, 17) for nd in range(18)
            for neg in (0, 1)] + ["?".rjust(8).ljust(32)]
    text = np.frombuffer("".join(rows).encode("ascii"), np.uint8).reshape(len(rows), 32)
    same, later = text == ord("D"), text == ord("L")
    return digits4, *(t.view("<u8") for t in (same * np.uint8(255), later * np.uint8(255),
                                              np.where(same | later, 0, text).astype(np.uint8)))


def _float_scaled(a, k):
    """For 1e-6 <= a < 1e16 and 1 <= k <= 22: a * 10**k == n + frac / 2**s
    exactly, with 0 <= frac < 2**s, and half a gap of a times 10**k is
    half / 2**s."""
    high = a * _POW10[k]
    ah, al = _halves(a)
    ph, pl = _POW10_HIGH[k], _POW10_LOW[k]
    low = ((ah * ph - high) + ah * pl + al * ph) + al * pl  # Dekker: a * 10**k - high
    # The half-gap is 2**(e - 54) * 10**k = 5**k * 2**t for a = m * 2**e, 0.5 <= m < 1:
    # 0.55 < half-gap < 12, so s <= 51, and every quantity below fits an int64.
    t = np.frexp(a)[1] + k - 54
    s = np.maximum(-t, 0)
    units = (low * _POW2[s]).astype(np.int64)  # low is a multiple of 2**-s, below 8
    n = high.astype(np.int64) + (units >> s)
    return n, units & ((1 << s) - 1), s, _POW5[k] << np.maximum(t, 0)


def _float_block(x: np.ndarray) -> list[str]:
    """The repr of each value of the float64 array ``x``."""
    digits4, take_same, take_later, fill = _float_tables()
    bits = x.view(np.int64)
    a = np.abs(x)
    fast = (a >= 1e-6) & (a < 1e16) & (bits & 0xFFFFFFFFFFFFF != 0)
    a[~fast] = 1.5  # any value in range: repr formats these
    # log10 only guesses k; n must have 17 digits, and k is corrected once.
    k = np.minimum(np.maximum(16 - np.floor(np.log10(a)).astype(np.intp), 1), 22)
    n, frac, s, half = _float_scaled(a, k)
    off = (n < 10**16).astype(np.intp) - (n >= 10**17)
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] = np.minimum(np.maximum(k[redo] + off[redo], 1), 22)
        n[redo], frac[redo], s[redo], half[redo] = _float_scaled(a[redo], k[redo])
        fast &= (n >= 10**16) & (n < 10**17)
    # A decimal reads back as x within the half-gap, its ends included only
    # for an even mantissa (round half to even): of the scaled integers, those
    # from top - width to top.  Fewest digits: the largest j for which one of
    # them is a multiple of 10**j; as the half-gap exceeds 0.5, j = 0 (17
    # digits) always fits.
    half -= bits & 1
    top = n + ((frac + half) >> s)
    width = top - n + ((half - frac) >> s)
    j = np.zeros(len(x), np.intp)
    todo = np.arange(len(x))
    for e in range(1, 18):
        q = _POW10_INT[e]
        fits = top - top // q * q <= width
        todo, top, width = todo[fits], top[fits], width[fits]
        if not todo.size:
            break
        j[todo] = e
    # The multiple of 10**j nearest P, comparing distances in units of 2**-s;
    # a distance clipped to 32 is too far either way.
    q = _POW10_INT[j]
    r = n - n // q * q
    one = 1 << s
    down = np.minimum(r, 32) * one + frac
    up = np.minimum(q - r, 32) * one - frac
    c = n - r + q * (up < down)
    fast &= up != down
    carry = c == 10**17
    c[carry] = 10**16
    groups = np.zeros((len(x), 8), "<u4")  # digit i of c at byte 7 + i
    for col in (5, 4, 3, 2, 1):
        q = c // 10000  # by a constant: much faster than % or divmod
        groups[:, col] = digits4[c - q * 10000]
        c = q
    digits = groups.view("<u8")
    later = digits << 8  # every digit one byte on, for those after the point
    later[:, 1:] |= digits[:, :-1] >> 56
    # The layout: decimal exponent, digit count (1 for 10**17) and sign.
    key = ((16 - k + carry + 6) * 18 + np.maximum(17 - j, 1)) * 2 + (x < 0)
    key = np.where(fast, key, len(fill) - 1)
    rows = digits & take_same.take(key, axis=0)  # take: rows far faster than [key]
    rows |= later & take_later.take(key, axis=0)
    rows |= fill.take(key, axis=0)
    cells = rows.tobytes().decode("ascii").split()
    for i in np.flatnonzero(~fast).tolist():
        cells[i] = repr(float(x[i]))
    return cells


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
