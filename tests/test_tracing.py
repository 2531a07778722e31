"""The benchmark's tracer still runs on the library.

perfbench/tracing.py wraps every public tradenet function in a span and
reads results of some of them (``len(r.points)`` after ``percolate``).  It
is loaded here from its file, unchanged, and run over ``panel`` on the
golden synth panel, so a library change that breaks the benchmark's traced
runs fails tier-1 too.  The traced run must also see every library call
that ``panel`` makes: a call through a reference the tracer cannot rebind
(one held in a table built at import time, say) loses its span.
"""

import importlib.util
import inspect
import sys
import time
from pathlib import Path

from tradenet.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PANEL = ROOT / "tests" / "golden" / "synth" / "out" / "panel.csv"

# Library calls of ``panel --emit-every 4`` on the three-year golden panel.
PANEL_CALLS = {
    "distributions.collapse_from_log_density": 3, "distributions.collapse_transform": 3,
    "distributions.degree_distribution": 1,
    "distributions.degree_distribution_from_degrees": 1, "distributions.degree_survival": 1,
    "distributions.fit_lognormal": 3, "distributions.fit_power_law": 3,
    "distributions.geometric_edges": 4, "distributions.intermediate_range": 3,
    "distributions.linear_fit": 13, "distributions.log_histogram": 4,
    "distributions.scaling_regression": 2, "graph.build_network": 3, "graph.summarize": 3,
    "ingest.pair_columns": 1, "ingest.read_columns": 1, "metrics.disparity_curve": 1,
    "metrics.node_metric_columns": 9, "percolation.fit_exponential_approach": 6,
    "percolation.percolate": 6, "richclub.rich_club_curve": 3, "richclub.rich_club_size": 3,
}


def test_traced_panel_counts_insertions_and_nests(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # The tracer rebinds module functions; monkeypatch puts them back after.
    for name, module in list(sys.modules.items()):
        if (name == "tradenet" or name.startswith("tradenet.")) and module is not None:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    monkeypatch.setattr(module, attr, value)
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    rc = main(["panel", "--input", str(GOLDEN_PANEL), "--outdir", str(tmp_path / "out"),
               "--emit-every", "4"])
    report = tracer.report(t0, time.perf_counter())
    assert rc == 0
    counts = report["counts"]
    assert counts["graph.links"] > 0
    assert counts["percolation.insertions"] == 2 * counts["graph.links"]
    assert report["nesting_ok"]
    assert report["calls"] == PANEL_CALLS
