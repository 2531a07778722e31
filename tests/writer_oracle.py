"""Reference text writers built on csv.writer and json.dumps, one row at a
time, as the package wrote its files before its column-join writer.

tests/test_writer_oracle.py compares the package's writers with these byte
for byte; records_text writes dyadic input for the ingest tests.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

HEADER = ("year", "reporter", "partner", "export", "import")


def table_text(header, columns, delimiter: str = ",") -> str:
    """A float array cell is its repr, another array's cell its tolist()
    value; csv.writer formats every cell (None empty, str() otherwise)."""
    def cells(column):
        if not isinstance(column, np.ndarray):
            return column
        if column.dtype.kind == "f":
            return [repr(v) for v in column.tolist()]
        return column.tolist()

    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*map(cells, columns)))
    return buf.getvalue()


def json_table_text(header, rows) -> str:
    """A table as the list of one dict per row, keys sorted and indented."""
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2, sort_keys=True) + "\n"


def records_text(records, delimiter: str = ",") -> str:
    """Dyadic text of (year, reporter, partner, export, import) records; a
    flow of None is an empty cell."""
    def flow(value):
        return "" if value is None else repr(value)

    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows([year, reporter, partner, flow(export), flow(imp)]
                     for year, reporter, partner, export, imp in records)
    return buf.getvalue()


def network_records_text(nets, delimiter: str = ",") -> str:
    """a's report and b's mirror report of every edge; a zero flow is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(HEADER)
    for net in nets:
        for e in range(net.n_links):
            a, b = net.nodes[net.a[e]], net.nodes[net.b[e]]
            exp, imp = float(net.w_exp[e]), float(net.w_imp[e])
            exp, imp = (repr(v) if v else "" for v in (exp, imp))
            writer.writerow([net.year, a, b, exp, imp])
            writer.writerow([net.year, b, a, imp, exp])
    return buf.getvalue()


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
