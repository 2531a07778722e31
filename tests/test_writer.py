"""The writer process of the analysis subcommands.

With more than one usable CPU, ``cli._run_years`` forks one child that
writes the files of the year steps while the command keeps analysing; the
command writes what the child did not confirm, and the panel step's files,
itself.  With the usable CPUs patched, the files, exit code and stderr must
be those of the one-CPU run on every path: a file that cannot be written, a
writer that dies part way, a refused fork, a year step that raises.  No
child may be left behind.  A command that cannot be placed on a CPU forks
nothing: neither the writer, nor the byte-range reader, nor synth's shares.
"""

from __future__ import annotations

import contextlib
import errno
import os
import shutil
from pathlib import Path
from unittest import mock

import pytest

from conftest import usable_cpus
from tradenet import _procs, cli, ingest

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="the writer is forked only where a process can fork")

GOLDEN_PANEL = Path(__file__).parent / "golden" / "synth" / "out" / "panel.csv"
GOLDEN_SNAPSHOTS = Path(__file__).parent / "golden" / "synth_snapshots" / "out"
COMMANDS = {
    "fit": ["fit"],
    "metrics": ["metrics"],
    "panel": ["panel", "--emit-every", "4"],
    "percolate": ["percolate", "--fit", "0.05:0.9"],
    "richclub": ["richclub"],
    "summary": ["summary"],
}
PANEL_FILES = 3 * 6 + 6  # six per year of the golden panel, then the panel step's


def run(out: Path, argv: list[str], capsys, n_cpus: int, data: Path | None = GOLDEN_PANEL):
    """Exit code, stderr and every file under ``out`` of a run on ``data``,
    the golden panel unless given, on ``n_cpus`` usable CPUs, and how many
    times it forked; afterwards no child of this process may be left.  For
    ``data`` None, ``argv`` names its input and, by "{out}", its outputs."""
    paths = ["--input", str(data), "--outdir", str(out)] if data else []
    with mock.patch.object(cli, "_usable_cpus", lambda: usable_cpus(n_cpus)), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        rc = cli.main([arg.format(out=out) for arg in argv] + paths)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(out.rglob("*.tmp"))
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
             if p.is_file()}
    return (rc, capsys.readouterr().err, files), fork.call_count


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_files_do_not_depend_on_the_cpu_count(tmp_path, capsys, command):
    want, forks = run(tmp_path / "one", COMMANDS[command], capsys, 1)
    assert want[:2] == (0, "") and want[2] and forks == 0
    got, forks = run(tmp_path / "two", COMMANDS[command], capsys, 2)
    assert forks == 1  # the writer; the golden panel is too small to read in byte ranges
    assert got == want


@pytest.mark.parametrize("year", [2001, 2003])
@pytest.mark.parametrize("command", ["metrics", "panel"])
def test_a_blocked_file_gives_the_one_cpu_error(tmp_path, capsys, command, year):
    """A directory where ``<year>_metrics.csv`` goes stops the command with
    the one-CPU run's exit code, error line and files.  The writer's failure
    is raised before the panel step, so the disparity curve that a huge
    minimum count makes ``metrics`` skip is not reported after it."""
    argv = COMMANDS[command] + ["--disparity-min-count", "1000000"]
    unblocked, _ = run(tmp_path / "unblocked", argv, capsys, 2)
    assert unblocked[0] == 0
    assert unblocked[1].startswith("warning:") == (command == "metrics")
    results = []
    for n_cpus in (1, 2):
        out = tmp_path / f"cpus{n_cpus}"
        (out / f"{year}_metrics.csv").mkdir(parents=True)
        results.append(run(out, argv, capsys, n_cpus)[0])
    one, two = results
    assert one[0] == 2
    assert one[1].startswith("error: ") and one[1].count("\n") == 1
    assert f"{year}_metrics.csv" in one[1] and ".tmp" not in one[1]
    assert two == (one[0], one[1].replace("cpus1", "cpus2"), one[2])


@pytest.mark.parametrize("jobs", [0, 1, 5])
def test_a_writer_that_dies_leaves_its_jobs_to_the_command(tmp_path, capsys, jobs):
    """A writer that leaves through os._exit after writing ``jobs`` files
    leaves every later file to the command, which writes them in order."""
    want, _ = run(tmp_path / "one", COMMANDS["panel"], capsys, 1)
    parent, write_job, here, done = os.getpid(), _procs._write_job, [], []

    def dying(*job):
        if os.getpid() == parent:
            here.append(job[0].name)
        elif len(done) == jobs:
            os._exit(0)
        write_job(*job)
        done.append(job[0].name)

    with mock.patch.object(_procs, "_write_job", dying):
        got, forks = run(tmp_path / "two", COMMANDS["panel"], capsys, 2)
    assert forks == 1
    assert got == want
    assert len(want[2]) == PANEL_FILES
    assert len(here) == PANEL_FILES - jobs


def test_a_refused_fork_writes_every_file_here(tmp_path, capsys):
    want, _ = run(tmp_path / "one", COMMANDS["panel"], capsys, 1)
    with mock.patch.object(_procs, "_write_job", wraps=_procs._write_job) as write_job, \
            mock.patch.object(os, "fork", side_effect=OSError("no room")):
        got, _ = run(tmp_path / "two", COMMANDS["panel"], capsys, 2)
    assert got == want
    assert write_job.call_count == PANEL_FILES


# Each command that forks on two CPUs: its argv, its input (None where argv
# names it), the patches that make it fork there and how many times it then
# forks.  The golden panel is read in byte ranges, and synth's years
# formatted in shares, only with the size thresholds lowered.
FORKING = {
    "panel": (COMMANDS["panel"], GOLDEN_PANEL, [], 1),  # the writer
    "summary": (COMMANDS["summary"], GOLDEN_PANEL,  # the writer, then a reader child
                [(ingest, "_SPLIT_MIN_BYTES", 1), (ingest, "_usable_cpus", lambda: usable_cpus(2))],
                2),
    "synth": (["synth", "--countries", "8", "--years", "2000:2005", "--seed", "4",
               "--dyadic", "{out}/d.csv", "--snapshot-dir", "{out}/snaps"], None,
              [(_procs, "_SPLIT_MIN_LINKS", 1)], 1),  # a child formatting a share
}


@pytest.mark.parametrize("command", sorted(FORKING))
def test_a_command_that_cannot_be_placed_writes_every_file_here(tmp_path, capsys, command):
    """Where sched_setaffinity fails in the command, nothing is forked and
    the command does every share of its work itself, with the one-CPU
    run's exit code, stderr and files."""
    argv, data, patches, n_forks = FORKING[command]
    want, forks = run(tmp_path / "one", argv, capsys, 1, data)
    assert want[0] == 0 and want[2] and forks == 0
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(mock.patch.object(*patch))
        assert run(tmp_path / "placed", argv, capsys, 2, data)[1] == n_forks
        with mock.patch.object(os, "sched_setaffinity",
                               side_effect=OSError(errno.EINVAL, "Invalid argument")):
            got, forks = run(tmp_path / "two", argv, capsys, 2, data)
    assert got == want
    assert forks == 0


def test_a_year_step_that_raises_gives_the_one_cpu_error(tmp_path, capsys):
    """A MemoryError in 2002's rich-club step, after its other files were
    sent to the writer, exits 2 with the one-CPU run's error line and
    files: those of 2001 and 2002's first five."""
    rich_club_curve = cli.rich_club_curve

    def failing(net, *args):
        if net.year == 2002:
            raise MemoryError
        return rich_club_curve(net, *args)

    results = []
    with mock.patch.object(cli, "rich_club_curve", failing):
        for n_cpus in (1, 2):
            results.append(run(tmp_path / f"cpus{n_cpus}", COMMANDS["panel"], capsys, n_cpus))
    (one, _), (two, forks) = results
    assert one[:2] == (2, "error: out of memory\n")
    assert len(one[2]) == 11
    assert forks == 1
    assert two == one


@pytest.mark.parametrize("year", [2001, 2002])
def test_a_malformed_snapshot_stops_the_run_where_it_is_loaded(tmp_path, capsys, year):
    """A snapshot named for its year is loaded just before that year's step.
    A malformed one exits 2 with one error line: the first year's leaves no
    outdir, since the outdir is made once a network has loaded, and the
    second's leaves the first year's files and no manifest.  One CPU and
    two give the same."""
    snaps = tmp_path / "snaps"
    shutil.copytree(GOLDEN_SNAPSHOTS, snaps)
    (snaps / f"{year}_network.json").write_text('{"format": "trade-network-snapshot",\n')
    results = []
    for n_cpus in (1, 2):
        out = tmp_path / f"cpus{n_cpus}"
        results.append(run(out, COMMANDS["panel"], capsys, n_cpus, snaps)[0])
        assert out.exists() == (year == 2002)
    one, two = results
    assert one[0] == 2
    assert one[1].startswith("error: ") and one[1].count("\n") == 1, one[1]
    assert "invalid snapshot JSON" in one[1]
    assert sorted(one[2]) == ([] if year == 2001 else [
        f"2001_{name}" for name in ("collapse.csv", "fits.json", "metrics.csv",
                                    "percolation.csv", "richclub.csv", "summary.csv")])
    assert two == one


def test_an_interrupted_command_leaves_no_child(tmp_path):
    def interrupted(*args):
        raise KeyboardInterrupt

    out = tmp_path / "out"
    with mock.patch.object(cli, "rich_club_curve", interrupted), \
            mock.patch.object(cli, "_usable_cpus", lambda: usable_cpus(2)), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            pytest.raises(KeyboardInterrupt):
        cli.main(COMMANDS["panel"] + ["--input", str(GOLDEN_PANEL), "--outdir", str(out)])
    assert fork.call_count == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(list(out.iterdir())) == 5  # 2001's files but the rich club
    assert not list(out.rglob("*.tmp"))
