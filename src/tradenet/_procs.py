"""Forked processes: the CPU each runs on, the pipe ends each keeps, and
reaping.  ``_forked`` computes shares of work in children, and ``_Writer``
writes a run's files in one, each forked by ``_fork``.  A child calls
private functions only, so every public call, which the benchmark's tracer
wraps, stays in the command's process.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import os
import pickle
import signal
import warnings

import numpy as np

from ._text import _write_job

# Panels with fewer links than this are formatted by one process.  On a
# 2-CPU host, formatting four years in two processes lost at 3,000 links,
# broke even at about 6,000 and won most runs from 9,000.
_SPLIT_MIN_LINKS = 10_000


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on, or none where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _place(cpu: int, cpus: list[int]) -> None:
    """Move this process onto ``cpu``, then let it run on all of ``cpus``
    again.  The kernel starts a forked child on its parent's CPU and may
    leave it there, so the two would take turns on one CPU."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(0, cpus)


def _fork(run, cpu: int, cpus: list[int], child_ends=(), parent_ends=()) -> int:
    """Fork a child that moves onto ``cpu`` (see _place), calls ``run()``
    and leaves through os._exit only, with status 0 once ``run`` returns
    and 1 if it raises.  The descriptors ``child_ends`` are closed here and
    ``parent_ends`` in the child; both are closed where the fork is refused,
    which raises OSError.  Returns the child's pid."""
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns that forking a process with threads (numpy's
            # BLAS threads) may deadlock the child.  The child calls no BLAS
            # and leaves through os._exit, running no exit handler.
            warnings.filterwarnings("ignore", ".*use of fork", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        for fd in (*child_ends, *parent_ends):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            for fd in parent_ends:
                os.close(fd)
            _place(cpu, cpus)
            run()
            status = 0
        finally:
            os._exit(status)
    for fd in child_ends:
        os.close(fd)
    return pid


def _reap(pid: int) -> None:
    """Kill the child ``pid``, unless it has exited, and reap it."""
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def _received(pipe):
    """The objects pickled into ``pipe``, up to its end or the first that
    is cut short."""
    with contextlib.suppress(EOFError, pickle.UnpicklingError):
        while True:
            yield pickle.load(pipe)


@contextlib.contextmanager
def _forked(work, shares: list[list], cpus: list[int]):
    """Yield one iterator over work(item) for every item of every share of
    ``shares``, in order.

    This process computes share 0, as the iterator reaches it.  Share k
    runs in a child forked onto cpus[k] (see _fork), which computes its
    whole share, then pickles each result through a pipe.  Once its
    children are forked, this process moves onto cpus[0].  A result that
    does not arrive whole is computed here: that of a share left without a
    CPU or a child (a refused fork forks no further share), or one that its
    child did not send.  When the block ends, every child is killed, unless
    it has exited, and reaped.
    """
    children = []  # (pid, read end of its pipe) of shares 1, 2, ...
    try:
        for cpu, share in zip(cpus[1:], shares[1:]):
            try:
                children.append(_fork_share(work, share, cpu, cpus))
            except OSError:
                break
        if children:
            _place(cpus[0], cpus)
        yield _results(work, shares, [None] + [pipe for _, pipe in children])
    finally:
        for pid, pipe in children:
            pipe.close()
            _reap(pid)


def _fork_share(work, share: list, cpu: int, cpus: list[int]):
    """Fork a child that runs ``work`` on each item of ``share`` and pickles
    the results into a pipe (see _forked).  Returns (pid, the read end of
    its pipe as a file)."""
    r, w = os.pipe()

    def run():
        results = [work(item) for item in share]
        with open(w, "wb") as pipe:
            for result in results:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)

    return _fork(run, cpu, cpus, (w,), (r,)), open(r, "rb")


_MISSING = object()  # a result that did not arrive


def _results(work, shares: list[list], pipes: list):
    """work(item) for every item of every share, in order: the results of
    share k loaded from pipes[k] as far as they arrive whole, and the rest,
    or all where pipes[k] is None or missing, computed here."""
    for share, pipe in itertools.zip_longest(shares, pipes):
        received = _received(pipe) if pipe else iter(())
        for item in share:
            result = next(received, _MISSING)
            yield work(item) if result is _MISSING else result


def _shares(nets: list, n_cpus: int) -> list[list]:
    """``nets`` cut into at most ``n_cpus`` contiguous shares of about equal
    link counts, each network in the share where the middle of its links
    falls; one share for one CPU, one network or a panel of fewer than
    _SPLIT_MIN_LINKS links."""
    links = np.array([net.n_links for net in nets])
    total = int(links.sum())
    if n_cpus < 2 or len(nets) < 2 or total < _SPLIT_MIN_LINKS:
        return [nets]
    middle = np.cumsum(links) - links / 2
    bounds = np.searchsorted(middle, np.arange(n_cpus + 1) * total / n_cpus).tolist()
    return [nets[lo:hi] for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


class _Writer:
    """Writes the files of a run into ``outdir``, in the order they come:
    here, or, where ``cpus`` holds more than one CPU and this process can
    be placed and forked, in a child on cpus[1] while it runs on cpus[0].

    Each file goes to the child as a job, the _write_job arguments, through
    one pipe, and the child confirms each file it has written through
    another.  A job the child has not confirmed is kept until close, which
    writes it here once the child is gone: the job the child failed, so
    that its error is raised here as on one CPU and no later job is
    written, or each job of a child that died.  Once closed, a writer
    writes every file here.
    """

    def __init__(self, outdir, cpus: list[int]):
        self.outdir = outdir
        self._pid = None
        self._pending = collections.deque()  # jobs sent and not yet confirmed
        if len(cpus) < 2:
            return
        try:
            _place(cpus[0], cpus)  # the child starts here, then moves onto cpus[1]
        except OSError:
            return  # every job is written here
        jobs, self._jobs = os.pipe()
        self._acks, acks = os.pipe()
        try:
            self._pid = _fork(functools.partial(_serve, jobs, acks), cpus[1], cpus,
                              (jobs, acks), (self._jobs, self._acks))
        except OSError:
            return  # a refused fork: every job is written here
        os.set_blocking(self._acks, False)

    def table(self, name: str, header, columns, output_format: str) -> str:
        """Write table ``name`` of ``columns``, or of the columns that a
        callable ``columns`` returns where the file is written (see
        _write_table); returns its file name."""
        filename = f"{name}.{output_format}"  # csv or json
        self._write((self.outdir / filename, header,
                     columns if callable(columns) else list(columns), output_format))
        return filename

    def json(self, name: str, obj) -> str:
        """Write the JSON text of ``obj`` as file ``name``; returns ``name``."""
        self._write((self.outdir / name, None, obj, "json"))
        return name

    def _write(self, job) -> None:
        if self._pid is None:
            _write_job(*job)
            return
        data = pickle.dumps(job, pickle.HIGHEST_PROTOCOL)
        self._pending.append(job)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(self._jobs, view):]
        except BrokenPipeError:  # the child has exited
            self.close()
            return
        self._confirmed()

    def _confirmed(self) -> None:
        """Drop each job the child has confirmed."""
        with contextlib.suppress(BlockingIOError):
            while acks := os.read(self._acks, 1 << 16):
                for _ in acks:
                    self._pending.popleft()

    def close(self) -> None:
        """End the job pipe, wait for the child to write what it was sent
        and exit, and write here, in order, each job it did not confirm;
        the first of those that fails raises.  If the wait is cut short, the
        child is killed and reaped."""
        pid, self._pid = self._pid, None
        if pid is None:
            return
        try:
            os.close(self._jobs)
            os.waitpid(pid, 0)
            pid = None
            os.set_blocking(self._acks, True)
            self._confirmed()
        finally:
            os.close(self._acks)
            if pid is not None:
                _reap(pid)
        while self._pending:
            _write_job(*self._pending.popleft())


def _serve(jobs: int, acks: int) -> None:
    """The writer child (see _Writer): write each job pickled into the pipe
    ``jobs`` and confirm it with one byte into ``acks``, until the pipe
    ends.  A job that fails ends the child unconfirmed."""
    with open(jobs, "rb") as pipe:
        for job in _received(pipe):
            _write_job(*job)
            os.write(acks, b"\0")
