"""Spans around every call into a tradenet module's public functions.

``install()`` wraps each public function of each ``tradenet.*`` module
(except ``cli``, which is the root every other layer runs under) and
rebinds the wrapper wherever a tradenet module binds that function, so
calls between modules are caught too (``richclub`` -> ``metrics.node_metrics``).
Spans stay in memory; ``report`` turns them into per-function self times,
per-layer waiting and counts after the command has finished.

Self time partitions the command's wall time: each stretch of time goes to
the innermost open span of every thread that has one, split evenly when
several threads do (the interpreter lock lets one run at a time), and to
``cli`` when no span is open.  So the layer self times plus ``cli.self_s``
add up to the traced wall time by construction; ``covered_s``, the length
of the union of all span intervals, is computed apart from that sweep so
the benchmark can check that the self times add up to it.
``<layer>.wait_s`` is per-thread span wall time minus the thread's CPU time
over the same stretch: lock and I/O waits.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

# Called once per edge or per neighbour (millions of calls on the paper
# panel): a span would cost more than the work, which stays in the
# caller's self time.
UNTRACED = {"graph.symmetrize", "metrics.directed_weights"}

# Layers named in the benchmark's metrics; rng is part of the synth layer.
LAYER_OF = {"rng": "synth"}


class Tracer:
    def __init__(self):
        self.spans = []  # (slot, name, thread, t0, t1, c0, c1, parent slot or -1)
        self.counts = {"ingest.rows": 0, "ingest.pairs": 0, "percolation.insertions": 0}
        self.networks = {}  # id -> (nodes, links) of networks the graph layer handled
        self._seq = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self) -> None:
        """Wrap the public functions of every loaded tradenet module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "tradenet" or name.startswith("tradenet.")) and m is not None]
        hooks = self._after_hooks()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            if short in ("tradenet", "cli"):
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and f"{short}.{attr}" not in UNTRACED):
                    name = f"{short}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, hooks.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap(self, name, fn, after):
        spans = self.spans
        local = self._local
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else -1
            slot = next(self._seq)
            stack.append(slot)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                spans.append((slot, name, threading.get_ident(), t0, t1, c0, c1, parent))
            if after is not None:
                with lock:  # counts are read-modify-write across pool threads
                    after(args, result)
            return result

        return traced

    def _after_hooks(self):
        counts, networks = self.counts, self.networks

        def add(key, amount):
            counts[key] += amount

        def seen(net):
            networks[id(net)] = (net.n_nodes, net.n_links)

        return {
            "ingest.parse_records": lambda a, r: add("ingest.rows", len(r)),
            "ingest.pair_flows": lambda a, r: add("ingest.pairs", len(r)),
            "percolation.percolate": lambda a, r: add("percolation.insertions",
                                                      len(r.points)),
            "graph.build_network": lambda a, r: seen(r),
            "graph.load_snapshot": lambda a, r: seen(r),
            "graph.save_snapshot": lambda a, r: seen(a[0]),
            "graph.network_to_pairs": lambda a, r: seen(a[0]),
        }

    def report(self, t_start: float, t_end: float) -> dict:
        """Self times, waits and counts of one traced command run between
        ``t_start`` and ``t_end`` (perf_counter seconds)."""
        spans = sorted(self.spans)  # by entry order
        index = {s[0]: k for k, s in enumerate(spans)}
        child_wall = [0.0] * len(spans)
        child_cpu = [0.0] * len(spans)
        for slot, _, _, t0, t1, c0, c1, parent in spans:
            if parent >= 0:
                child_wall[index[parent]] += t1 - t0
                child_cpu[index[parent]] += c1 - c0

        calls, wait = {}, {}
        for k, (_, name, _, t0, t1, c0, c1, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            layer = _layer(name)
            wait[layer] = wait.get(layer, 0.0) + ((t1 - t0 - child_wall[k])
                                                  - (c1 - c0 - child_cpu[k]))

        self_time, cli_self, nesting_ok = _attribute(spans, t_start, t_end)
        nodes = sum(n for n, _ in self.networks.values())
        links = sum(l for _, l in self.networks.values())
        return {
            "self_s": self_time,
            "cli_self_s": cli_self,
            "covered_s": _covered(spans, t_start, t_end),
            "wait_s": wait,
            "calls": calls,
            "counts": dict(self.counts, **{"graph.nodes": nodes, "graph.links": links,
                                           "trace.spans": len(spans)}),
            "nesting_ok": nesting_ok,
        }


def _layer(name: str) -> str:
    module = name.partition(".")[0]
    return LAYER_OF.get(module, module)


def _covered(spans, t_start, t_end) -> float:
    """Length of the union of the span intervals, clipped to the command."""
    total, reach = 0.0, t_start
    for t0, t1 in sorted((s[3], s[4]) for s in spans):
        t0, t1 = max(t0, reach), min(t1, t_end)
        if t1 > t0:
            total += t1 - t0
            reach = t1
    return total


def _attribute(spans, t_start, t_end):
    """Split [t_start, t_end] among the innermost open spans of all threads."""
    events = []
    for k, (_, _, thread, t0, t1, _, _, _) in enumerate(spans):
        events.append((t0, 1, k, thread))
        events.append((t1, 0, -k, thread))  # at equal times, inner spans end first
    events.sort()
    stacks = {}
    self_time = {}
    cli_self = 0.0
    nesting_ok = all(t_start <= s[3] <= s[4] <= t_end for s in spans)
    prev = t_start
    for t, is_start, k, thread in events:
        k = abs(k)
        dt = t - prev
        open_spans = [stack[-1] for stack in stacks.values() if stack]
        if open_spans:
            share = dt / len(open_spans)
            for j in open_spans:
                name = spans[j][1]
                self_time[name] = self_time.get(name, 0.0) + share
        else:
            cli_self += dt
        stack = stacks.setdefault(thread, [])
        if is_start:
            stack.append(k)
        elif stack and stack[-1] == k:
            stack.pop()
        else:
            nesting_ok = False
            if k in stack:
                stack.remove(k)
        prev = t
    cli_self += t_end - prev
    nesting_ok = nesting_ok and not any(stacks.values())
    return self_time, cli_self, nesting_ok
