"""Checks that need a fresh interpreter: the command as a user runs it,
under a real CPU mask, with numpy's BLAS threads alive when it forks, and
the float text oracle with numpy's AVX-512 kernels switched off.

Each run is ``python -m tradenet.cli`` in a new process, its CPU mask set
by ``os.sched_setaffinity`` before it starts, as ``taskset -c`` sets it.
No thread count is pinned, and ``PYTHONWARNINGS`` shows every
DeprecationWarning, wherever it is raised, so Python 3.12+'s warning about
forking a process with threads would reach stderr.  Each command runs on
two CPUs, where it forks, and on one, where nothing forks: the outdirs must
match and stderr stay empty.  One command dies before it closes its
forked writer, which must then write what it was sent and exit.

Each fresh process imports the package this module imported: the
checkout's, or, where pytest's ``pythonpath`` is emptied as CI does in the
environment it installs the package into, the installed one.  The last
test runs the console script installed beside this interpreter; where no
script is installed, it skips.
"""

from __future__ import annotations

import os
import random
import select
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import tradenet
from tradenet import ingest

SRC = str(Path(tradenet.__file__).resolve().parents[1])
GOLDEN = Path(__file__).resolve().parent / "golden"
MODULE = (sys.executable, "-m", "tradenet.cli")  # the package imported here
SCRIPT = Path(sys.executable).with_name("tradenet")
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SYNTH = ["synth", "--countries", "200", "--years", "2000:2009", "--seed", "5"]


def tradenet_on(cpus: list[int] | None, *args, command=MODULE,
                cwd: Path | None = None) -> subprocess.CompletedProcess:
    """``tradenet args`` run in a fresh process on ``cpus`` only (where
    None, on this process's CPUs): ``command``, the package imported here
    run as a module, or the installed console script."""
    mask = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
    return subprocess.run([*map(str, command), *map(str, args)],
                          env=fresh_env(package=command == MODULE), cwd=cwd,
                          capture_output=True, text=True, timeout=600, preexec_fn=mask)


def fresh_env(package: bool = True) -> dict[str, str]:
    """This process's environment without thread pins, showing every
    DeprecationWarning, and where ``package``, importing the package
    imported here."""
    env = {name: value for name, value in os.environ.items()
           if name not in THREAD_PINS and name != "PYTHONPATH"}
    if package:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "default::DeprecationWarning"
    return env


def tree(root: Path) -> dict[str, bytes | None]:
    """Every file under ``root`` by its relative path, with its bytes, and
    every directory, with None: what ``diff -r`` compares."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.fixture(scope="module")
def cpus() -> list[int]:
    """Two CPUs this process may run on."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        pytest.skip("CPU masks and forked processes need os.fork and os.sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) < 2:
        pytest.skip("needs two usable CPUs")
    return cpus


@pytest.fixture(scope="module")
def synth_runs(tmp_path_factory, cpus) -> dict:
    """``synth --dyadic --snapshot-dir`` of a 200-country, 10-year panel on
    two CPUs, where forked children format the later years, and on one:
    (outdir, run) of each."""
    root = tmp_path_factory.mktemp("synth")
    return {name: (root / name, tradenet_on(mask, *SYNTH, "--dyadic", root / name / "large.csv",
                                            "--snapshot-dir", root / name / "snapshots"))
            for name, mask in (("forked", cpus), ("serial", cpus[:1]))}


@pytest.fixture(scope="module")
def large_csv(synth_runs) -> Path:
    """The multi-MB dyadic CSV of the panel, large enough to be read in two
    byte ranges on two CPUs."""
    out, run = synth_runs["forked"]
    assert (run.returncode, run.stderr) == (0, "")
    assert (out / "large.csv").stat().st_size >= 2 * ingest._SPLIT_MIN_BYTES
    return out / "large.csv"


def test_synth_on_two_cpus_gives_the_one_cpu_files(synth_runs):
    trees = []
    for out, run in synth_runs.values():
        assert (run.returncode, run.stderr) == (0, "")
        trees.append(tree(out))
    forked, serial = trees
    assert len(forked) == 2 + 10  # the CSV, the snapshot directory and its snapshots
    assert forked == serial


def test_panel_on_two_cpus_gives_the_one_cpu_files(tmp_path, cpus, large_csv):
    """The CSV through ``panel`` on two CPUs, where it is read in byte
    ranges by a forked child and its files are written by the forked writer,
    and on one."""
    for name, mask in (("panel-ranges", cpus), ("panel-serial", cpus[:1])):
        run = tradenet_on(mask, "panel", "--input", large_csv, "--outdir", tmp_path / name)
        assert (run.returncode, run.stderr) == (0, "")
    ranges, serial = tree(tmp_path / "panel-ranges"), tree(tmp_path / "panel-serial")
    assert len(ranges) == 10 * 6 + 6
    assert ranges == serial


def test_panel_on_snapshots_on_two_cpus_gives_the_one_cpu_files(tmp_path, cpus, synth_runs):
    """The panel's snapshot directory through ``panel`` on two CPUs, where
    each snapshot is loaded while the forked writer writes the year before,
    and on one."""
    synth_out, run = synth_runs["forked"]
    assert (run.returncode, run.stderr) == (0, "")
    for name, mask in (("panel-forked", cpus), ("panel-serial", cpus[:1])):
        run = tradenet_on(mask, "panel", "--input", synth_out / "snapshots",
                          "--outdir", tmp_path / name)
        assert (run.returncode, run.stderr) == (0, "")
    forked, serial = tree(tmp_path / "panel-forked"), tree(tmp_path / "panel-serial")
    assert len(forked) == 10 * 6 + 6
    assert forked == serial


def test_summary_of_shuffled_rows_on_two_cpus_gives_the_one_cpu_files(tmp_path, cpus,
                                                                        large_csv):
    """The CSV and a copy with its data rows shuffled, each through
    ``summary`` on two CPUs, read in byte ranges, and on one: the four
    outdirs must match, since the mean policy sums each flow's reports in
    ascending value order, whatever the row order."""
    header, *rows = large_csv.read_bytes().splitlines(keepends=True)
    random.Random(5).shuffle(rows)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_bytes(header + b"".join(rows))
    trees = []
    for data in (large_csv, shuffled):
        for mask in (cpus, cpus[:1]):
            out = tmp_path / f"{data.stem}-{len(mask)}"
            run = tradenet_on(mask, "summary", "--input", data, "--outdir", out)
            assert (run.returncode, run.stderr) == (0, "")
            trees.append(tree(out))
    assert len(trees[0]) == 10
    assert trees[1:] == trees[:1] * 3


ORACLE = Path(__file__).resolve().parent / "float_text_oracle.py"
AVX512_KERNELS = "X86_V4 AVX512_ICL AVX512_SPR"  # as numpy 2.4 names them


def test_float_text_is_repr_without_the_avx512_kernels():
    """The float text kernel against repr on about 200,000 values, in a
    process where numpy may not use its AVX-512 kernels: which kernel
    computes np.log10 must not change a digit, as log10 only guesses the
    decimal exponent.  On a CPU without AVX-512, or under a numpy that
    names its kernels otherwise, numpy runs the kernels it always runs, and
    this checks nothing new."""
    env = {**fresh_env(), "NPY_DISABLE_CPU_FEATURES": AVX512_KERNELS}
    run = subprocess.run([sys.executable, ORACLE, "--values", "200000"], env=env,
                         capture_output=True, text=True, timeout=600)
    assert (run.returncode, run.stderr) == (0, ""), run.stdout


UNCLOSED = """\
import os, sys
from pathlib import Path
from tradenet import _procs
out = _procs._Writer(Path(sys.argv[1]), [int(cpu) for cpu in sys.argv[2:]])
out.json("a.json", 1)
print(out._pid, flush=True)
os._exit(0)
"""


def test_a_command_that_dies_unclosed_leaves_no_writer(tmp_path, cpus):
    """A command that dies without closing its writer, as one killed by a
    signal does: the forked writer must still see its jobs end, write the
    one it was sent and exit.  It holds every descriptor of the command, so
    the write end of a pipe passed to the command ends once both are gone;
    the command's output goes to files, not pipes, for the same reason."""
    (tmp_path / "out").mkdir()
    argv = [sys.executable, "-c", UNCLOSED, tmp_path / "out", *map(str, cpus)]
    read_end, write_end = os.pipe()
    with open(tmp_path / "stdout", "w+") as stdout, open(tmp_path / "stderr", "w+") as stderr:
        try:
            command = subprocess.run(argv, env=fresh_env(), stdout=stdout, stderr=stderr,
                                     pass_fds=[write_end], timeout=60)
        finally:
            os.close(write_end)
    with open(read_end, "rb") as pipe:
        ended = select.select([pipe], [], [], 30)[0]
        if not ended:
            os.kill(int((tmp_path / "stdout").read_text()), signal.SIGKILL)
        assert ended, "the writer outlived its command"
        assert pipe.read() == b""
    assert (command.returncode, (tmp_path / "stderr").read_text()) == (0, "")
    assert tree(tmp_path / "out") == {"a.json": b"1\n"}


def test_the_installed_console_script_runs(tmp_path):
    """``tradenet --version``, and ``panel`` on the golden snapshots, which
    must give the golden files, through the installed console script."""
    if not SCRIPT.is_file():
        pytest.skip(f"no tradenet console script is installed beside {sys.executable}")
    version = tradenet_on(None, "--version", command=[SCRIPT])
    assert (version.returncode, version.stdout, version.stderr) == (
        0, f"tradenet {tradenet.__version__}\n", "")
    shutil.copytree(GOLDEN / "synth_snapshots" / "out", tmp_path / "snaps")
    run = tradenet_on(None, "panel", "--input", "snaps", "--outdir", "out", "--emit-every", "1",
                      command=[SCRIPT], cwd=tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    assert tree(tmp_path / "out") == tree(GOLDEN / "panel_snapshots" / "out")
