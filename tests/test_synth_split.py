"""synth formats the years of a large panel in forked children.

The years are cut into one share per usable CPU; a forked child formats
each share but the first and pickles the texts back, and the command writes
every file itself, in year order.  With the link count below which nothing
is forked lowered to one link and the usable CPUs patched, the files, exit
code and error line must be those of the serial run, also when a child
fails or a file cannot be written, and no child may be left behind.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from pathlib import Path
from unittest import mock

import pytest

from conftest import one_cpu_mask, usable_cpus
from tradenet import _procs, cli

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="synth forks only where a process can fork")

SYNTH = ["synth", "--countries", "8", "--years", "2000:2005", "--n-final", "14", "--seed", "4"]
OUTPUTS = {"dyadic": ["--dyadic", "{out}/d.csv"], "snapshots": ["--snapshot-dir", "{out}/snaps"],
           "both": ["--dyadic", "{out}/d.csv", "--snapshot-dir", "{out}/snaps"]}


def run(out: Path, outputs: str, capsys, n_cpus: int | None, min_links: int = 1):
    """Exit code, stderr and every file under ``out`` of a synth run on
    ``n_cpus`` usable CPUs, or on those of the CPU mask for None; afterwards
    no child of this process may be left."""
    argv = SYNTH + [arg.format(out=out) for arg in OUTPUTS[outputs]]
    with mock.patch.object(cli, "_usable_cpus", lambda: usable_cpus(n_cpus)) if n_cpus \
            else contextlib.nullcontext(), mock.patch.object(_procs, "_SPLIT_MIN_LINKS", min_links):
        rc = cli.main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
             if p.is_file()}
    return rc, capsys.readouterr().err, files


@pytest.mark.parametrize("outputs", sorted(OUTPUTS))
def test_files_do_not_depend_on_the_cpu_count(tmp_path, capsys, outputs):
    want = run(tmp_path / "serial", outputs, capsys, 1)
    assert want[0] == 0 and want[2]
    for n_cpus in (2, 3):
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            got = run(tmp_path / f"cpus{n_cpus}", outputs, capsys, n_cpus)
        assert fork.call_count == n_cpus - 1
        assert got == want


def test_shares_are_contiguous_and_balanced_by_links():
    class Net:
        def __init__(self, n_links):
            self.n_links = n_links

    nets = [Net(n) for n in (1, 1, 1, 1, 4, 8)]
    with mock.patch.object(_procs, "_SPLIT_MIN_LINKS", 1):
        assert _procs._shares(nets, 2) == [nets[:5], nets[5:]]
        assert _procs._shares(nets, 3) == [nets[:4], nets[4:5], nets[5:]]
        assert _procs._shares(nets, 1) == [nets]
        assert _procs._shares(nets[:1], 3) == [nets[:1]]
    with mock.patch.object(_procs, "_SPLIT_MIN_LINKS", 17):
        assert _procs._shares(nets, 2) == [nets]


@pytest.mark.parametrize("mask, min_links", [("one CPU", 1), ("all CPUs", 1 << 40)])
def test_no_fork_on_one_cpu_or_a_small_panel(tmp_path, capsys, mask, min_links):
    want = run(tmp_path / "serial", "both", capsys, 1)
    with one_cpu_mask() if mask == "one CPU" else contextlib.nullcontext(), \
            mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        got = run(tmp_path / "out", "both", capsys, None if mask == "one CPU" else 2, min_links)
    assert got == want


@pytest.mark.parametrize("fails_after", [0, 1])
def test_a_failed_child_leaves_its_years_to_the_parent(tmp_path, capsys, fails_after):
    """A child whose pickle.dump raises, at once or after sending one year,
    sends fewer years than its share; the command formats the rest."""
    want = run(tmp_path / "serial", "both", capsys, 1)
    dump, sent = pickle.dump, []

    def failing(*args, **kwargs):
        if len(sent) == fails_after:
            raise OSError("no room")
        sent.append(1)
        dump(*args, **kwargs)

    with mock.patch("pickle.dump", failing), \
            mock.patch.object(cli, "_synth_texts", wraps=cli._synth_texts) as texts:
        got = run(tmp_path / "forked", "both", capsys, 2)
    assert got == want
    # The parent's share, then each year the child did not send.
    assert texts.call_count == 6 - fails_after


@pytest.mark.parametrize("where", ["after forking", "while writing"])
def test_children_are_killed_and_reaped_when_the_command_stops(tmp_path, where):
    parent, results, texts = os.getpid(), _procs._results, cli._synth_texts

    def interrupted(function):
        def call(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return function(*args)
        return call

    # _results is called once the children are forked.
    target = (_procs, "_results", interrupted(results)) if where == "after forking" else (
        cli, "_synth_texts", interrupted(texts))
    argv = SYNTH + [arg.format(out=tmp_path) for arg in OUTPUTS["both"]]
    with mock.patch.object(cli, "_usable_cpus", lambda: usable_cpus(3)), \
            mock.patch.object(_procs, "_SPLIT_MIN_LINKS", 1), \
            mock.patch.object(*target), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            pytest.raises(KeyboardInterrupt):
        cli.main(argv)
    assert fork.call_count == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_blocked_snapshot_in_a_child_share_gives_the_serial_error(tmp_path, capsys):
    """A directory holding the name of a snapshot that a child formats (on
    two CPUs the child's share is 2004 and 2005) stops the command with the
    serial run's exit code and error line, and no temporary file is left."""
    results = []
    for n_cpus in (1, 2):
        out = tmp_path / f"cpus{n_cpus}"
        (out / "snaps" / "2004_network.json").mkdir(parents=True)
        results.append(run(out, "both", capsys, n_cpus))
        assert not list(out.rglob("*.tmp"))
    serial, forked = results
    assert serial[0] == 2 and serial[1].endswith("2004_network.json'\n")
    assert forked == (2, serial[1].replace("cpus1", "cpus2"), serial[2])
