"""The fork helper's contract: ``ingest._forked(work, shares, cpus)`` gives
work(item) for every item of every share, in order, whether its children
send their results, fail part way or are never forked; this process
computes whatever a child did not send, and no child is left behind.
"""

from __future__ import annotations

import os
import pickle
from unittest import mock

import pytest

from conftest import usable_cpus
from tradenet import ingest

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="_forked forks only where a process can fork")

SHARES = [[0, 1], [2, 3, 4], [5, 6]]
ITEMS = [item for share in SHARES for item in share]
# The items each failure leaves to this process, by usable CPU count:
# share 0, every share without a child, and what a child did not send.
COMPUTED_HERE = {
    "none": {1: 7, 2: 4, 3: 2},
    "pickle.dump at once": {1: 7, 2: 7, 3: 7},
    "pickle.dump after one item": {1: 7, 2: 6, 3: 5},
    "os.fork on the second fork": {1: 7, 2: 4, 3: 4},
}


def work(item):
    """A toy result, a different one for every item."""
    return item, [str(item)] * item


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("failure", sorted(COMPUTED_HERE))
def test_every_result_arrives_in_order(n_cpus, failure):
    want = [work(item) for item in ITEMS]
    here = []  # the items this process computes; a child's calls stay in the child

    def counted(item):
        here.append(item)
        return work(item)

    dump, fork, sent = pickle.dump, os.fork, []

    def failing_dump(*args, **kwargs):
        if len(sent) == (1 if failure == "pickle.dump after one item" else 0):
            raise OSError("no room")
        sent.append(1)
        dump(*args, **kwargs)

    def failing_fork():
        if forks.call_count == 2:
            raise OSError("no room")
        return fork()

    with mock.patch.object(os, "fork", side_effect=failing_fork if failure.startswith("os.fork")
                           else fork) as forks, \
            mock.patch("pickle.dump", failing_dump if failure.startswith("pickle") else dump):
        with ingest._forked(counted, SHARES, usable_cpus(n_cpus)) as results:
            assert here == []  # share 0 is computed as the iterator reaches it
            got = list(results)
    assert got == want
    assert forks.call_count == n_cpus - 1
    assert len(here) == COMPUTED_HERE[failure][n_cpus]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
