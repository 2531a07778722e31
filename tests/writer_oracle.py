"""Reference text writers built on csv.writer and json.dumps, one row at a
time, as the package wrote its files before its column-join writer.

tests/test_writer_oracle.py compares the package's writers with these byte
for byte, and reads their CSV and TSV back with csv.reader as the cells of
``table_rows`` and ``network_rows``; records_text writes dyadic input for
the ingest tests.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

HEADER = ("year", "reporter", "partner", "export", "import")


class _Lines(list):
    """A list that csv.writer writes to, one entry per row."""

    write = list.append


def csv_text(rows, delimiter: str = ",") -> str:
    r"""The rows as csv.writer writes them with "\r\n" line ends, each line
    end then cut to "\n".  Every Python version then quotes a field that
    holds "\r" or "\n"; with ``lineterminator="\n"``, 3.10-3.12 leave a
    lone "\r" unquoted."""
    lines = _Lines()
    csv.writer(lines, delimiter=delimiter, lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def read_back(text: str, delimiter: str = ",") -> list[list[str]]:
    """The rows csv.reader reads from ``text``."""
    return list(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter))


def table_rows(header, columns) -> list[list[str]]:
    """The header and the rows of a table as cell texts: a float array cell
    is its repr, another array's cell the str of its tolist() value, None
    empty and any other cell its str()."""
    def cells(column):
        if isinstance(column, np.ndarray):
            if column.dtype.kind == "f":
                return [repr(v) for v in column.tolist()]
            column = column.tolist()
        return ["" if v is None else str(v) for v in column]

    return [list(header), *map(list, zip(*map(cells, columns)))]


def table_text(header, columns, delimiter: str = ",") -> str:
    return csv_text(table_rows(header, columns), delimiter)


def json_table_text(header, rows) -> str:
    """A table as the list of one dict per row, keys sorted and indented."""
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2, sort_keys=True) + "\n"


def records_text(records, delimiter: str = ",") -> str:
    """Dyadic text of (year, reporter, partner, export, import) records; a
    flow of None is an empty cell."""
    def flow(value):
        return "" if value is None else repr(value)

    return csv_text([HEADER, *([year, reporter, partner, flow(export), flow(imp)]
                               for year, reporter, partner, export, imp in records)],
                    delimiter)


def network_rows(nets) -> list[list[str]]:
    """The header, then a's report and b's mirror report of every edge as
    cell texts; a zero flow is empty."""
    rows = [list(HEADER)]
    for net in nets:
        for e in range(net.n_links):
            a, b = net.nodes[net.a[e]], net.nodes[net.b[e]]
            exp, imp = float(net.w_exp[e]), float(net.w_imp[e])
            exp, imp = (repr(v) if v else "" for v in (exp, imp))
            rows.append([str(net.year), a, b, exp, imp])
            rows.append([str(net.year), b, a, imp, exp])
    return rows


def network_records_text(nets, delimiter: str = ",") -> str:
    return csv_text(network_rows(nets), delimiter)


def snapshot_text(net) -> str:
    doc = {
        "format": "trade-network-snapshot",
        "version": 1,
        "year": net.year,
        "nodes": list(net.nodes),
        "edges": [[net.nodes[a], net.nodes[b], w_exp, w_imp]
                  for a, b, w_exp, w_imp in zip(net.a.tolist(), net.b.tolist(),
                                                net.w_exp.tolist(), net.w_imp.tolist())],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
