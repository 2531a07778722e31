"""Golden-output gate: CLI outputs must match the committed bytes exactly.

Each case runs one CLI command in a scratch directory with relative paths
(the manifest records the input path) and compares every file it writes,
its exit code and its stderr with ``tests/golden/<case>/``.  The cases
cover the synth writers (dyadic CSV and snapshots), ``panel`` in CSV and
JSON on a small seeded synth panel and on its snapshot directory with every
percolation point, ``panel`` on a hand-built file whose country codes need
CSV quoting (a comma, a doubled quote, a newline) or hold an inner space or
a non-ASCII letter, ``metrics`` for export and import flows and on a file
whose country code holds a lone carriage return, ``fit`` on
the synth panel with a fixed window and on a hand-written weight list,
``percolate`` with its exponential fits and with one order thinned,
``richclub`` at a non-default threshold and on one year, and ``summary``
under every ``--on-duplicate`` x ``--missing`` combination on a hand-built
file with duplicates, one-sided reports, zeros, shuffled rows and one year
whose flows are all zero.

A change that alters outputs on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py [case ...]

(all cases when none is named) and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import sys
from pathlib import Path
from unittest import mock

import pytest

from tradenet import ingest
from tradenet.cli import main
from tradenet.graph import load_snapshot

GOLDEN = Path(__file__).resolve().parent / "golden"
MESSY = GOLDEN / "inputs" / "messy.csv"
CODES = GOLDEN / "inputs" / "codes.csv"
CR_CODE = GOLDEN / "inputs" / "cr_code.csv"
WEIGHTS = GOLDEN / "inputs" / "weights.txt"

SYNTH_ARGS = ["synth", "--countries", "30", "--years", "2001:2003", "--n-final", "40",
              "--gdp-scale-final", "2", "--noise-logsd", "1.5", "--seed", "7"]

# case name -> (argv, input: "synth" panel CSV, "snapshots" directory,
# "messy" file, "codes" file, "cr_code" file, "weights" list or None)
CASES = {
    "synth": (SYNTH_ARGS + ["--dyadic", "out/panel.csv"], None),
    "synth_snapshots": (SYNTH_ARGS + ["--snapshot-dir", "out"], None),
    "panel_csv": (["panel", "--input", "panel.csv", "--outdir", "out",
                   "--emit-every", "4"], "synth"),
    "panel_json": (["panel", "--input", "panel.csv", "--outdir", "out",
                    "--emit-every", "4", "--output-format", "json"], "synth"),
    "panel_snapshots": (["panel", "--input", "snaps", "--outdir", "out",
                         "--emit-every", "1"], "snapshots"),
    "panel_codes": (["panel", "--input", "codes.csv", "--outdir", "out",
                     "--emit-every", "1"], "codes"),
    "metrics_export": (["metrics", "--input", "panel.csv", "--outdir", "out",
                        "--flow", "export"], "synth"),
    "metrics_import": (["metrics", "--input", "messy.csv", "--outdir", "out",
                        "--flow", "import"], "messy"),
    "metrics_cr_code": (["metrics", "--input", "cr_code.csv", "--outdir", "out"], "cr_code"),
    "fit_input": (["fit", "--input", "panel.csv", "--outdir", "out",
                   "--fit-range", "1:1e6", "--bins-per-decade", "7"], "synth"),
    "fit_weights": (["fit", "--weights", "weights.txt", "--outdir", "out",
                     "--output-format", "json"], "weights"),
    "percolate_fit": (["percolate", "--input", "panel.csv", "--outdir", "out",
                       "--order", "both", "--fit", "0.05:0.9"], "synth"),
    "percolate_desc": (["percolate", "--input", "panel.csv", "--outdir", "out",
                        "--order", "desc", "--emit-every", "7"], "synth"),
    "richclub_threshold": (["richclub", "--input", "panel.csv", "--outdir", "out",
                            "--threshold", "0.3"], "synth"),
    "richclub_one_year": (["richclub", "--input", "panel.csv", "--outdir", "out",
                           "--years", "2002"], "synth"),
}
for _dup in ("mean", "first", "max"):
    for _missing in ("zero", "copy"):
        CASES[f"summary_{_dup}_{_missing}"] = (
            ["summary", "--input", "messy.csv", "--outdir", "out",
             "--on-duplicate", _dup, "--missing", _missing], "messy")


def run_case(name: str, workdir: Path) -> tuple[dict, dict[str, bytes]]:
    """Run one case in ``workdir``; returns (exit code and stderr, output files)."""
    argv, source = CASES[name]
    workdir.mkdir(parents=True, exist_ok=True)
    if source == "synth":
        shutil.copyfile(GOLDEN / "synth" / "out" / "panel.csv", workdir / "panel.csv")
    elif source == "snapshots":
        shutil.copytree(GOLDEN / "synth_snapshots" / "out", workdir / "snaps")
    elif source == "messy":
        shutil.copyfile(MESSY, workdir / "messy.csv")
    elif source == "codes":
        shutil.copyfile(CODES, workdir / "codes.csv")
    elif source == "cr_code":
        shutil.copyfile(CR_CODE, workdir / "cr_code.csv")
    elif source == "weights":
        shutil.copyfile(WEIGHTS, workdir / "weights.txt")
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit_code": rc, "stderr": err.getvalue()}, files_under(workdir / "out")


def files_under(root: Path) -> dict[str, bytes]:
    """The bytes of every file below ``root``, by its path relative to it."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_golden(name: str, workdir: Path) -> None:
    """Case ``name`` run in ``workdir`` gives its golden result and files."""
    result, files = run_case(name, workdir)
    assert result == json.loads((GOLDEN / name / "result.json").read_text())
    want = files_under(GOLDEN / name / "out")
    assert sorted(files) == sorted(want)
    changed = [n for n in sorted(want) if files[n] != want[n]]
    assert not changed, f"outputs differ from the golden bytes: {changed}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    assert_golden(name, tmp_path)


@pytest.mark.parametrize("name", ["metrics_import", "summary_mean_copy"])
def test_a_byte_order_mark_changes_no_output(name, tmp_path, monkeypatch):
    """The messy file led by the UTF-8 byte-order mark that Excel's "CSV
    UTF-8" export writes gives the plain file's golden outputs."""
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + MESSY.read_bytes())
    monkeypatch.setitem(globals(), "MESSY", bom)
    assert_golden(name, tmp_path / "run")


def test_a_lone_carriage_return_in_a_code_reads_back(tmp_path):
    """The metrics table of a country code holding a lone "\\r" reads back
    with csv.reader as one row per country."""
    _, files = run_case("metrics_cr_code", tmp_path)
    text = files["2001_metrics.csv"].decode("utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [row[0] for row in rows] == ["country", "CAN", "Lone\rReturn", "MEX", "USA"]
    assert {len(row) for row in rows} == {6}


def test_synth_both_outputs_match_the_single_output_goldens(tmp_path):
    """One synth writing the dyadic CSV and the snapshots in one pass writes
    the bytes of the two single-output cases."""
    rc = main(SYNTH_ARGS + ["--dyadic", str(tmp_path / "panel.csv"),
                            "--snapshot-dir", str(tmp_path / "snaps")])
    assert rc == 0
    assert files_under(tmp_path) == {
        "panel.csv": (GOLDEN / "synth" / "out" / "panel.csv").read_bytes(),
        **{f"snaps/{name}": data
           for name, data in files_under(GOLDEN / "synth_snapshots" / "out").items()}}


def test_synth_formats_each_network_once(tmp_path):
    """With both outputs, every network's weights go through one
    _float_cells call: its w_exp and its w_imp, each value once."""
    with mock.patch.object(ingest, "_float_cells", wraps=ingest._float_cells) as spy:
        rc = main(SYNTH_ARGS + ["--dyadic", str(tmp_path / "panel.csv"),
                                "--snapshot-dir", str(tmp_path / "snaps")])
    assert rc == 0
    nets = [load_snapshot(p) for p in sorted((tmp_path / "snaps").iterdir())]
    assert [len(c.args[0]) for c in spy.call_args_list] == [2 * net.n_links for net in nets]


def regenerate(names) -> None:
    import tempfile

    for name in names:  # synth cases first: the cases after them read their output
        with tempfile.TemporaryDirectory() as tmp:
            result, files = run_case(name, Path(tmp))
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        (target / "out").mkdir(parents=True)
        (target / "result.json").write_text(json.dumps(result, indent=2) + "\n")
        for rel, data in files.items():
            (target / "out" / rel).parent.mkdir(parents=True, exist_ok=True)
            (target / "out" / rel).write_bytes(data)
        print(f"{name}: exit {result['exit_code']}, {len(files)} files", file=sys.stderr)


if __name__ == "__main__":
    regenerate(sys.argv[1:] or list(CASES))
