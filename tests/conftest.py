"""Shared test helpers."""

import contextlib
import io
import os

import numpy as np
import pytest

from tradenet.graph import AnnualTradeNetwork, build_network
from tradenet.ingest import pair_columns, read_columns, write_network_records


@contextlib.contextmanager
def one_cpu_mask():
    """Let the calling thread run on one CPU only, the lowest it may use, as
    ``taskset -c`` with one CPU does; a no-op where CPU masks are not
    available."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def usable_cpus(n):
    """``n`` CPUs this process may run on, repeating them where it has fewer."""
    real = sorted(os.sched_getaffinity(0))
    return [real[k % len(real)] for k in range(n)]


def make_network(year, edge_list):
    """Build a network from (a, b, w_exp, w_imp) tuples; a pair given as
    (b, a) is turned round, its two flows with it."""
    rows = [(a, b, w_exp, w_imp) if a < b else (b, a, w_imp, w_exp)
            for a, b, w_exp, w_imp in edge_list]
    return AnnualTradeNetwork(year, *zip(*rows))


def rescaled(net, factor, year=None):
    """``net`` with both flow weights of every edge multiplied by ``factor``."""
    return AnnualTradeNetwork(net.year if year is None else year,
                              [net.nodes[i] for i in net.a.tolist()],
                              [net.nodes[i] for i in net.b.tolist()],
                              factor * net.w_exp, factor * net.w_imp)


def rebuilt_from_rows(net, missing="zero"):
    """``net`` written as dyadic rows, read back, paired and built again."""
    buf = io.StringIO()
    write_network_records([net], buf)
    buf.seek(0)
    return build_network(pair_columns(read_columns(buf)), net.year, missing)


def random_network(rng: np.random.Generator, n_nodes, edge_prob=0.4, year=2000,
                   max_weight=100.0):
    """Random weighted network with at least one edge; weights uniform."""
    codes = [f"N{i:03d}" for i in range(n_nodes)]
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                w_exp = float(rng.random() * max_weight)
                w_imp = float(rng.random() * max_weight)
                if w_exp + w_imp > 0:
                    edges.append((codes[i], codes[j], w_exp, w_imp))
    if not edges:
        edges.append((codes[0], codes[1], 1.0, 2.0))
    return make_network(year, edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
