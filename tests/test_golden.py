"""Golden-output gate: CLI outputs must match the committed bytes exactly.

Each case runs one CLI command in a scratch directory with relative paths
(the manifest records the input path) and compares every file it writes,
its exit code and its stderr with ``tests/golden/<case>/``.  The cases
cover the synth writer, ``panel`` in CSV and JSON on a small seeded synth
panel, and ``summary`` under every ``--on-duplicate`` x ``--missing``
combination on a hand-built file with duplicates, one-sided reports, zeros,
shuffled rows and one year whose flows are all zero.

A change that alters outputs on purpose regenerates the goldens with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from tradenet.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MESSY = GOLDEN / "inputs" / "messy.csv"

SYNTH_ARGS = ["synth", "--countries", "30", "--years", "2001:2003", "--n-final", "40",
              "--gdp-scale-final", "2", "--noise-logsd", "1.5", "--seed", "7"]

# case name -> (argv, whether the case reads the synth panel, else the messy file)
CASES = {
    "synth": (SYNTH_ARGS + ["--dyadic", "out/panel.csv"], None),
    "panel_csv": (["panel", "--input", "panel.csv", "--outdir", "out",
                   "--emit-every", "4"], "synth"),
    "panel_json": (["panel", "--input", "panel.csv", "--outdir", "out",
                    "--emit-every", "4", "--output-format", "json"], "synth"),
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
    elif source == "messy":
        shutil.copyfile(MESSY, workdir / "messy.csv")
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    out = workdir / "out"
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"argv": argv, "exit_code": rc, "stderr": err.getvalue()}, files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    result, files = run_case(name, tmp_path)
    assert result == json.loads((GOLDEN / name / "result.json").read_text())
    golden_dir = GOLDEN / name / "out"
    want = {p.relative_to(golden_dir).as_posix(): p.read_bytes()
            for p in sorted(golden_dir.rglob("*")) if p.is_file()}
    assert sorted(files) == sorted(want)
    changed = [n for n in sorted(want) if files[n] != want[n]]
    assert not changed, f"outputs differ from the golden bytes: {changed}"


def regenerate() -> None:
    import tempfile

    for name in CASES:  # synth first: the panel cases read its output
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
    regenerate()
