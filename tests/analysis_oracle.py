"""Dict-based reference for the network analyses, kept as the tests' oracle.

This is how the library computed the summary, per-node metrics,
percolation curves and rich-club curves before the array-backed network:
one Python loop over a dict of edges or over each node's sorted partners,
with the built-in ``sum`` and ``+=``.  A network is given as
``{(a, b): (w_exp, w_imp, w)}`` with ``a < b``.  ``largest_after_unions``,
on node indices, is the one-edge-at-a-time union loop of percolation.
"""

from __future__ import annotations


def edge_dict(net):
    """A network's edges as {(a, b): (w_exp, w_imp, w)} in (a, b) order."""
    keys = zip([net.nodes[i] for i in net.a.tolist()], [net.nodes[i] for i in net.b.tolist()])
    return dict(zip(keys, zip(net.w_exp.tolist(), net.w_imp.tolist(), net.w.tolist())))


def adjacency(edges):
    """{country: {partner: (w_exp, w_imp, w)}}, both levels sorted by code."""
    adj = {}
    for (a, b), ew in sorted(edges.items()):
        adj.setdefault(a, {})[b] = ew
        adj.setdefault(b, {})[a] = ew
    return {c: dict(sorted(neigh.items())) for c, neigh in sorted(adj.items())}


def summarize(year, edges):
    """(year, N, L, rho, W, mean_w, w_max, w_max_over_W)."""
    weights = [ew[2] for _, ew in sorted(edges.items())]
    n = len(adjacency(edges))
    n_links = len(weights)
    total = sum(weights)
    w_max = max(weights)
    return (year, n, n_links, n_links / (n * (n - 1) / 2), total, total / n_links,
            w_max, w_max / total)


def node_metrics(edges, country, flow="total"):
    """(k, k_exp, k_imp, s, Y); s is the int 0 and Y None for no strength."""
    neigh = adjacency(edges)[country]
    k_exp = 0
    k_imp = 0
    selected = []
    for partner, (w_exp, w_imp, w) in neigh.items():
        out, inc = (w_exp, w_imp) if country < partner else (w_imp, w_exp)
        if out > 0.0:
            k_exp += 1
        if inc > 0.0:
            k_imp += 1
        w_sel = {"total": w, "export": out, "import": inc}[flow]
        if w_sel > 0.0:
            selected.append(w_sel)
    s = sum(selected)
    y = sum((w / s) ** 2 for w in selected) if s > 0.0 else None
    return (len(neigh), k_exp, k_imp, s, y)


def disparity_samples(edges, flow="total"):
    samples = []
    for country in adjacency(edges):
        k, k_exp, k_imp, _, y = node_metrics(edges, country, flow)
        if y is None:
            continue
        k_kind = {"total": k, "export": k_exp, "import": k_imp}[flow]
        samples.append((k_kind, k_kind * y))
    return samples


def percolate(edges, order="descending"):
    """[(m / L, S_g / N)] after each of the L weight-ordered insertions."""
    sign = -1.0 if order == "descending" else 1.0
    ranked = sorted(edges.items(), key=lambda item: (sign * item[1][2], item[0]))
    nodes = list(adjacency(edges))
    index = {c: i for i, c in enumerate(nodes)}
    parent = list(range(len(nodes)))
    size = [1] * len(nodes)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n = len(nodes)
    n_links = len(edges)
    giant = 1
    points = []
    for m, ((a, b), _) in enumerate(ranked, start=1):
        ra, rb = find(index[a]), find(index[b])
        if ra != rb:
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            giant = max(giant, size[ra])
        points.append((m / n_links, giant / n))
    return points


def largest_after_unions(n, a, b):
    """The largest set size after each union of a[m] with b[m] in disjoint
    sets over range(n), one edge at a time (union by size, path halving),
    stopping once one set holds every element: the loop
    ``percolation._largest_after_unions`` ran before it filtered its edges
    in blocks."""
    parent = list(range(n))
    size = [1] * n
    largest = 1
    out = []
    for x, y in zip(a, b):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            if size[x] < size[y]:
                x, y = y, x
            parent[y] = x
            size[x] += size[y]
            if size[x] > largest:
                largest = size[x]
        out.append(largest)
        if largest == n:
            break
    return out


def rich_club_curve(edges):
    """([(s / s_max, f_w, club size)], s_max) over strength-ordered clubs."""
    adj = adjacency(edges)
    strength = {c: node_metrics(edges, c)[3] for c in adj}
    seq = sorted(adj, key=lambda c: (strength[c], c))
    s_max = strength[seq[-1]]
    suffix_internal = [0.0] * len(seq)
    internal = 0.0
    added = set()
    for i in range(len(seq) - 1, -1, -1):
        country = seq[i]
        for partner, ew in adj[country].items():
            if partner in added:
                internal += ew[2]
        added.add(country)
        suffix_internal[i] = internal
    total = suffix_internal[0]
    points = [(strength[c] / s_max, suffix_internal[i] / total, len(seq) - i)
              for i, c in enumerate(seq)]
    return points, s_max
