"""The four benchmark workloads: their inputs, commands and output checks.

Each workload writes its seeded inputs once per run (``prepare``) and then
names the CLI commands of one repetition.  A command's check returns the
problems it found and the SHA-256 digests of the outputs that no planned
change should alter; ``manifest.json`` and ``*_fits.json`` are only parsed
and checked for their keys, so later changes may add fields to them.
Paths given to the CLI are relative to the checkout root, so the bytes the
program writes do not depend on where the checkout lives.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
from inputs import Gravity

PAPER = Gravity(76, (1948, 2000), n_final=187, gdp_scale_final=140.0,
                density=0.52, noise_logsd=2.0)
LARGE = Gravity(700, (2000, 2002), density=0.3, gdp_logsd=1.5, noise_logsd=2.0)
MESSY_YEARS = 10

# Same shapes at a size that runs all four workloads in a few seconds.
TINY_PAPER = Gravity(30, (1990, 1995), n_final=45, gdp_scale_final=3.0,
                     density=0.52, noise_logsd=2.0)
TINY_LARGE = Gravity(60, (2000, 2002), density=0.3, gdp_logsd=1.5, noise_logsd=2.0)
TINY_MESSY_YEARS = 3

DEFAULT_SEED = 11

SUMMARY_HEADER = ["year", "N", "L", "rho", "W", "mean_w", "w_max", "w_max_over_W"]
YEAR_TABLES = ("summary", "metrics", "collapse", "percolation", "richclub")
PANEL_TABLES = ("panel_summary.csv", "panel_richclub.csv",
                "panel_disparity_curve.csv", "panel_degree_survival.csv")
MANIFEST_KEYS = {"tool", "version", "input", "config", "years", "panel_files", "warnings"}
YEAR_FIT_KEYS = {"power_law", "lognormal", "percolation"}
POOLED_FIT_KEYS = {"disparity", "degree"}
# Degree-vs-size scaling needs years of different size; panel_large has one.
SCALING_FIT_KEYS = {"mean_degree_vs_n", "max_degree_vs_n"}


@dataclass
class Command:
    """One CLI call of a repetition and the check of what it wrote."""

    argv: Callable[[str], list[str]]  # outdir (relative) -> tradenet arguments
    check: Callable[[Path], tuple[list[str], dict[str, str]]]
    links: int  # links the command's networks hold in total


@dataclass
class Prepared:
    commands: list[Command]
    input_sha256: dict[str, str]
    rows: int  # dyadic rows the program reads (0 for snapshot or no input)
    counts: dict[str, int] = field(default_factory=dict)  # known input counts
    problems: list[str] = field(default_factory=list)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: Path, text: str) -> str:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return sha256(data)


# ---------------------------------------------------------------------------
# Workloads


def panel_paper(seed: int, tiny: bool, root: Path, work: Path) -> Prepared:
    """``panel --emit-every 10`` on the criterion-8 dyadic CSV."""
    g = TINY_PAPER if tiny else PAPER
    rows = inputs.consistent_rows(inputs.gravity_panel(g, seed))
    src = work / "panel.csv"
    digest = _write(root / src, inputs.csv_text(rows))
    problems = []
    if not tiny and seed == 11 and digest != inputs.PAPER_CSV_SHA256:
        problems.append("panel_paper input differs from the criterion-8 CSV")
    expected = inputs.expected_networks(rows, "mean", "zero")
    cmd = Command(lambda out: ["panel", "--input", str(src), "--outdir", out,
                               "--emit-every", "10"],
                  lambda out: check_panel(out, expected, POOLED_FIT_KEYS | SCALING_FIT_KEYS),
                  links=sum(len(e.w) for e in expected))
    return Prepared([cmd], {src.name: digest}, len(rows), problems=problems)


def panel_large(seed: int, tiny: bool, root: Path, work: Path) -> Prepared:
    """``panel`` (every percolation point) on a directory of large snapshots."""
    nets = inputs.gravity_panel(TINY_LARGE if tiny else LARGE, seed)
    snaps = work / "snaps"
    (root / snaps).mkdir()
    digests = {f"snaps/{net.year}_network.json":
               _write(root / snaps / f"{net.year}_network.json", inputs.snapshot_text(net))
               for net in nets}
    expected = inputs.expected_from_nets(nets)
    cmd = Command(lambda out: ["panel", "--input", str(snaps), "--outdir", out],
                  lambda out: check_panel(out, expected, POOLED_FIT_KEYS),
                  links=sum(len(e.w) for e in expected))
    return Prepared([cmd], digests, 0)


def synth_paper(seed: int, tiny: bool, root: Path, work: Path) -> Prepared:
    """``synth`` of the criterion-8 panel to a dyadic CSV and snapshots."""
    g = TINY_PAPER if tiny else PAPER
    nets = inputs.gravity_panel(g, seed)
    want = {"panel.csv": sha256(inputs.csv_text(inputs.consistent_rows(nets)).encode())}
    for net in nets:
        want[f"snaps/{net.year}_network.json"] = sha256(inputs.snapshot_text(net).encode())

    def argv(out):
        return ["synth", *g.synth_args(seed), "--dyadic", f"{out}/panel.csv",
                "--snapshot-dir", f"{out}/snaps"]

    def check(out: Path):
        problems = _check_names(out, set(want))
        digests = _digests(out, sorted(set(want) & _names(out)))
        problems += [f"{name} differs from the generator's bytes"
                     for name, d in digests.items() if want[name] != d]
        return problems, digests

    return Prepared([Command(argv, check, links=sum(len(n.i) for n in nets))], {}, 0)


def ingest_messy(seed: int, tiny: bool, root: Path, work: Path) -> Prepared:
    """``summary`` twice (default and first/copy policies) on messy reports."""
    g = TINY_PAPER if tiny else PAPER
    nets = inputs.gravity_panel(g, seed, last=TINY_MESSY_YEARS if tiny else MESSY_YEARS)
    rows, stats = inputs.make_messy(inputs.consistent_rows(nets), seed)
    src = work / "messy.csv"
    digest = _write(root / src, inputs.csv_text(rows))
    commands = []
    for policy in ([], ["--on-duplicate", "first", "--missing", "copy"]):
        expected = inputs.expected_networks(
            rows, "first" if policy else "mean", "copy" if policy else "zero")
        commands.append(Command(
            lambda out, policy=policy: ["summary", "--input", str(src), "--outdir", out,
                                        *policy],
            lambda out, expected=expected: check_summaries(out, expected),
            links=sum(len(e.w) for e in expected)))
    return Prepared(commands, {src.name: digest}, len(rows),
                    counts={"ingest.dup_reports": stats.dup_reports,
                            "ingest.one_sided_flows": stats.one_sided_flows})


WORKLOADS = {
    "panel_paper": panel_paper,
    "panel_large": panel_large,
    "synth_paper": synth_paper,
    "ingest_messy": ingest_messy,
}


# ---------------------------------------------------------------------------
# Checks


def check_panel(out: Path, expected: list[inputs.Expected], panel_fit_keys: set[str]):
    years = [e.year for e in expected]
    per_year = {f"{y}_{t}.csv" for y in years for t in YEAR_TABLES} | {f"{y}_fits.json"
                                                                     for y in years}
    problems = _check_names(out, per_year | set(PANEL_TABLES)
                            | {"panel_fits.json", "manifest.json"})
    problems += _check_json_keys(out / "manifest.json", MANIFEST_KEYS)
    if not problems:
        manifest = json.loads((out / "manifest.json").read_text())
        if sorted(manifest["years"]) != sorted(str(y) for y in years) or not all(
                "files" in entry for entry in manifest["years"].values()):
            problems.append("manifest.json: years do not all list their files")
    for y in years:
        problems += _check_json_keys(out / f"{y}_fits.json", YEAR_FIT_KEYS)
    problems += _check_json_keys(out / "panel_fits.json", panel_fit_keys)
    problems += _check_summary_rows(out, expected)
    if (out / "panel_summary.csv").is_file():
        problems += _compare_summary("panel_summary.csv", _read_csv(out / "panel_summary.csv"),
                                     [e.summary_row() for e in expected])
    digested = sorted(n for n in _names(out) if n.endswith(".csv"))
    return problems, _digests(out, digested)


def check_summaries(out: Path, expected: list[inputs.Expected]):
    names = {f"{e.year}_summary.csv" for e in expected}
    problems = _check_names(out, names) + _check_summary_rows(out, expected)
    return problems, _digests(out, sorted(names & _names(out)))


def _names(out: Path) -> set[str]:
    return {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}


def _check_names(out: Path, required: set[str]) -> list[str]:
    names = _names(out) if out.is_dir() else set()
    missing = sorted(required - names)
    extra = sorted(names - required)
    problems = []
    if missing:
        problems.append(f"{len(missing)} expected files missing, e.g. {missing[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected files, e.g. {extra[0]}")
    return problems


def _check_json_keys(path: Path, keys: set[str]) -> list[str]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"]
    if not isinstance(doc, dict):
        return [f"{path.name}: not a JSON object"]
    if not keys <= set(doc):
        return [f"{path.name}: missing keys {sorted(keys - set(doc))}"]
    return []


def _check_summary_rows(out: Path, expected: list[inputs.Expected]) -> list[str]:
    problems = []
    for e in expected:
        path = out / f"{e.year}_summary.csv"
        if path.is_file():
            problems += _compare_summary(path.name, _read_csv(path), [e.summary_row()])
    return problems


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _compare_summary(name: str, table: list[list[str]], want: list[list]) -> list[str]:
    """Counts must match exactly, trade figures to 1e-9 relative."""
    if not table or table[0] != SUMMARY_HEADER or len(table) != len(want) + 1:
        return [f"{name}: unexpected header or row count"]
    for got, row in zip(table[1:], want):
        try:
            ints_ok = [int(v) for v in got[:3]] == row[:3]
            floats_ok = all(math.isclose(float(v), w, rel_tol=1e-9)
                            for v, w in zip(got[3:], row[3:]))
        except ValueError:
            ints_ok = floats_ok = False
        if not (ints_ok and floats_ok):
            return [f"{name}: year {row[0]} summary {got} != expected {row}"]
    return []


def _digests(out: Path, names) -> dict[str, str]:
    return {name: sha256((out / name).read_bytes()) for name in names}


def combined_digest(digests: dict[str, str]) -> str:
    return sha256("".join(f"{n} {d}\n" for n, d in sorted(digests.items())).encode())
