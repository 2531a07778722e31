"""The benchmark's tracer still runs on the library.

perfbench/tracing.py wraps every public tradenet function in a span and
reads results of some of them (``len(r.points)`` after ``percolate``).  It
is loaded here from its file, unchanged, and run over ``panel`` on the
golden synth panel, so a library change that breaks the benchmark's traced
runs fails tier-1 too.
"""

import importlib.util
import inspect
import sys
import time
from pathlib import Path

from tradenet.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PANEL = ROOT / "tests" / "golden" / "synth" / "out" / "panel.csv"


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
