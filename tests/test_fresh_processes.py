"""Checks that need a fresh interpreter: the command as a user runs it,
under a real CPU mask, with numpy's BLAS threads alive when it forks.

Each run is ``python -m tradenet.cli`` in a new process, its CPU mask set
by ``os.sched_setaffinity`` before it starts, as ``taskset -c`` sets it.
No thread count is pinned, and ``PYTHONWARNINGS`` shows every
DeprecationWarning, wherever it is raised, so Python 3.12+'s warning about
forking a process with threads would reach stderr.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tradenet
from tradenet import ingest
from tradenet.cli import main

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")),
    reason="CPU masks and forked processes need os.fork and os.sched_setaffinity")

SRC = str(Path(tradenet.__file__).resolve().parents[1])
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def tradenet_on(cpus: list[int], *args) -> subprocess.CompletedProcess:
    """``tradenet args`` run in a fresh process on ``cpus`` only."""
    env = {name: value for name, value in os.environ.items() if name not in THREAD_PINS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "default::DeprecationWarning"
    return subprocess.run([sys.executable, "-m", "tradenet.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=600,
                          preexec_fn=lambda: os.sched_setaffinity(0, cpus))


def tree(root: Path) -> dict[str, bytes | None]:
    """Every file under ``root`` by its relative path, with its bytes, and
    every directory, with None: what ``diff -r`` compares."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def test_panel_on_two_cpus_gives_the_one_cpu_files(tmp_path):
    """A multi-MB dyadic CSV through ``panel`` on two CPUs, where it is read
    in byte ranges by a forked child and its files are written by the forked
    writer, and on one, where nothing forks: the outdirs must match and
    stderr stay empty."""
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) < 2:
        pytest.skip("needs two usable CPUs")
    large = tmp_path / "large.csv"
    assert main(["synth", "--countries", "200", "--years", "2000:2009", "--seed", "5",
                 "--dyadic", str(large)]) == 0
    assert large.stat().st_size >= 2 * ingest._SPLIT_MIN_BYTES  # two byte ranges
    for name, mask in (("panel-ranges", cpus), ("panel-serial", cpus[:1])):
        run = tradenet_on(mask, "panel", "--input", large, "--outdir", tmp_path / name)
        assert (run.returncode, run.stderr) == (0, "")
    ranges, serial = tree(tmp_path / "panel-ranges"), tree(tmp_path / "panel-serial")
    assert len(ranges) == 10 * 6 + 6
    assert ranges == serial
