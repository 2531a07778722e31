"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every oracle here is written independently of the code path it checks.
"""

import json
import math
import time

import numpy as np

from analysis_oracle import edge_dict
from conftest import one_cpu_mask
from tradenet.cli import main as cli_main
from tradenet.distributions import (collapse_from_log_density,
                                    degree_distribution_from_degrees,
                                    fit_lognormal, fit_power_law, log_histogram,
                                    scaling_regression)
from tradenet.graph import AnnualTradeNetwork, build_network, snapshot_dumps, summarize
from tradenet.ingest import (PairedColumns, pair_columns, read_columns,
                             write_network_records)
from tradenet.metrics import node_metric_columns
from tradenet.percolation import percolate
from tradenet.richclub import rich_club_curve, rich_club_size
from tradenet.synth import GravityParams, generate_network


def report(num, name, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def random_network(rng, n_nodes, edge_prob=0.4, year=2000):
    codes = [f"N{i:03d}" for i in range(n_nodes)]
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                w_exp = float(rng.random() * 100.0)
                w_imp = float(rng.random() * 100.0)
                if w_exp + w_imp > 0:
                    edges.append((codes[i], codes[j], w_exp, w_imp))
    if not edges:
        edges.append((codes[0], codes[1], 1.0, 2.0))
    return AnnualTradeNetwork(year, *zip(*edges))


def test_criterion_1_eq1_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    codes = [f"C{i:03d}" for i in range(142)]
    all_pairs = [(i, j) for i in range(142) for j in range(i + 1, 142)][:10_000]
    flows = []
    for _ in all_pairs:
        row = [float(rng.uniform(0.0, 1e6)) if rng.random() < 0.7 else None
               for _ in range(4)]
        if not any(row):
            row[0] = float(rng.uniform(1.0, 1e6))
        flows.append(row)
    a, b = np.array(all_pairs).T
    pairs = PairedColumns((2000,), tuple(codes), np.zeros(len(a), dtype=np.intp), a, b,
                          np.array(flows, dtype=np.float64))

    net = build_network(pairs, 2000)
    # every pair has a report, so every pair is an edge, and w = w_exp + w_imp
    identity_ok = (net.n_links == len(all_pairs)
                   and (net.w == net.w_exp + net.w_imp).all())
    total = summarize(net).total_trade
    strength_sum = sum(node_metric_columns(net).s.tolist())
    rel = abs(strength_sum - 2.0 * total) / (2.0 * total)
    elapsed = time.perf_counter() - start
    ok = identity_ok and rel <= 1e-9 and elapsed < 1.0
    report(1, "eq1-identity-suite", ok,
           f"n=10000, strength-sum rel err {rel:.2e}, {elapsed:.2f}s")


def test_criterion_2_disparity_oracle():
    rng = np.random.default_rng(1002)
    checked = 0
    exact = True
    bounds = True
    for _ in range(200):
        net = random_network(rng, int(rng.integers(3, 31)),
                             edge_prob=float(rng.uniform(0.15, 0.7)))
        edges = edge_dict(net)
        cols = node_metric_columns(net)
        for country, k, y in zip(net.nodes, cols.k.tolist(), cols.Y.tolist()):
            # independent brute force straight off the edge map
            incident = [w for (a, b), (_, _, w) in edges.items()
                        if a == country or b == country]
            s = sum(incident)
            y_oracle = sum((w / s) ** 2 for w in incident)
            exact = exact and y == y_oracle
            bounds = bounds and (1.0 / k) <= y <= 1.0
            checked += 1
    report(2, "disparity-oracle", exact and bounds,
           f"{checked} nodes over 200 networks, exact equality")


def bfs_giant(nodes, edges):
    adj = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, best = set(), 0
    for start in nodes:
        if start in seen:
            continue
        stack, seen_size = [start], 1
        seen.add(start)
        while stack:
            node = stack.pop()
            for other in adj[node]:
                if other not in seen:
                    seen.add(other)
                    seen_size += 1
                    stack.append(other)
        best = max(best, seen_size)
    return best


def test_criterion_3_percolation_oracle():
    rng = np.random.default_rng(1003)
    exact = True
    for _ in range(100):
        net = random_network(rng, int(rng.integers(3, 31)),
                             edge_prob=float(rng.uniform(0.15, 0.7)))
        for order in ("descending", "ascending"):
            curve = percolate(net, order)
            key = (lambda kv: (-kv[1][2], kv[0])) if order == "descending" \
                else (lambda kv: (kv[1][2], kv[0]))
            ranked = [k for k, _ in sorted(edge_dict(net).items(), key=key)]
            inserted = []
            for pair, (f, giant) in zip(ranked, curve.points):
                inserted.append(pair)
                if giant != bfs_giant(net.nodes, inserted) / net.n_nodes:
                    exact = False

    start = time.perf_counter()
    big = generate_network(GravityParams(n_countries=200, link_density_target=0.5,
                                         noise_logsd=1.0, seed=33), 2000)
    monotone = True
    for order in ("descending", "ascending"):
        giants = [g for _, g in percolate(big, order).points]
        monotone = monotone and all(a <= b for a, b in zip(giants, giants[1:]))
    elapsed = time.perf_counter() - start
    ok = exact and monotone and elapsed < 5.0
    report(3, "percolation-oracle", ok,
           f"BFS-exact on 100 graphs; L={big.n_links} run {elapsed:.2f}s")


def test_criterion_4_fit_recovery():
    details = []
    ok = True

    # (a) tau = 1.22 over 4 decades
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    u = rng.random(100_000)
    tau = 1.22
    top = 1e4 ** (1.0 - tau)
    w = (1.0 - u * (1.0 - top)) ** (1.0 / (1.0 - tau))
    fit = fit_power_law(log_histogram(w, 10), (10.0, 1000.0))
    ok_a = abs(fit.tau - 1.22) <= 0.1 and time.perf_counter() - start < 5.0
    details.append(f"tau={fit.tau:.3f}")

    # (b) log-normal recovery
    start = time.perf_counter()
    wl = np.exp(math.log(100.0) + 2.0 * rng.standard_normal(10_000))
    lnf = fit_lognormal(wl)
    ok_b = (abs(lnf.w0 - 100.0) / 100.0 <= 0.05
            and abs(lnf.sigma - 2.0) / 2.0 <= 0.05
            and time.perf_counter() - start < 5.0)
    details.append(f"w0={lnf.w0:.1f}, sigma={lnf.sigma:.3f}")

    # (c) collapse of the exact density
    start = time.perf_counter()
    w0, sigma = 100.0, 2.0
    width = math.log(10.0) / 9
    ln_centers = math.log(w0) + width * (np.arange(-45, 46) + 0.5)
    x = ln_centers - math.log(w0)
    dens = np.exp(-(x**2) / (2.0 * sigma**2)) / math.sqrt(2.0 * math.pi * sigma**2)
    pts = collapse_from_log_density(ln_centers, dens, w0, sigma)
    worst = max(abs(y - xx * xx) for xx, y in pts)
    ok_c = worst <= 1e-9 and time.perf_counter() - start < 5.0
    details.append(f"max|y-x^2|={worst:.1e}")

    # (d) gamma = 2.74 from survival-sampled degrees
    start = time.perf_counter()
    a = 1.74
    x = (1.0 - rng.random(100_000) * (1.0 - 1e4 ** (-a))) ** (-1.0 / a)
    degrees = np.floor(x).astype(int)
    dd = degree_distribution_from_degrees(degrees, (3.0, 50.0))
    ok_d = abs(dd.gamma - 2.74) <= 0.15 and time.perf_counter() - start < 5.0
    details.append(f"gamma={dd.gamma:.3f}")

    ok = ok_a and ok_b and ok_c and ok_d
    report(4, "fit-recovery", ok, ", ".join(details))


def test_criterion_5_scaling_regression_exactness():
    ns = np.array([76.0, 85.0, 101.0, 133.0, 150.0, 187.0])
    fit = scaling_regression(list(zip(ns, 0.7 * ns**1.19)))
    err = abs(fit.exponent - 1.19)
    report(5, "scaling-regression-exactness", err <= 1e-9, f"err={err:.1e}")


def test_criterion_6_rich_club_oracle():
    rng = np.random.default_rng(1006)
    exact = True
    shape_ok = True
    for _ in range(200):
        net = random_network(rng, int(rng.integers(2, 16)),
                             edge_prob=float(rng.uniform(0.2, 0.8)))
        curve = rich_club_curve(net)
        club_size, _ = rich_club_size(curve, net, 0.5)

        # exhaustive: internal trade of every strength suffix from scratch
        weights = {key: w for key, (_, _, w) in edge_dict(net).items()}
        strength = {}
        for c in net.nodes:
            strength[c] = sum(w for (a, b), w in weights.items() if a == c or b == c)
        seq = sorted(net.nodes, key=lambda c: (strength[c], c))
        total = sum(weights.values())
        best = len(seq)
        for start in range(len(seq)):
            club = set(seq[start:])
            internal = sum(w for (a, b), w in weights.items()
                           if a in club and b in club)
            if internal >= 0.5 * total:
                best = len(seq) - start
        exact = exact and club_size == best

        fws = [f_w for _, f_w, _ in curve.points]
        shape_ok = (shape_ok and fws[-1] == 0.0
                    and all(p >= q for p, q in zip(fws, fws[1:])))
    report(6, "rich-club-oracle", exact and shape_ok,
           "exhaustive suffix search on 200 networks")


def test_criterion_7_density_fixture():
    params = GravityParams(n_countries=76, link_density_target=1494 / 2850,
                           noise_logsd=2.0, seed=0)
    s = summarize(generate_network(params, 1948))
    ok = s.n_nodes == 76 and s.n_links == 1494 and abs(s.rho - 0.5242) <= 1e-4
    report(7, "density-fixture-1948", ok,
           f"N={s.n_nodes}, L={s.n_links}, rho={s.rho:.6f}")


def test_criterion_8_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    data = tmp_path / "panel.csv"
    rc = cli_main(["synth", "--countries", "76", "--years", "1948:2000",
                   "--n-final", "187", "--gdp-scale-final", "140",
                   "--density", "0.52", "--noise-logsd", "2.0", "--seed", "11",
                   "--dyadic", str(data)])
    assert rc == 0
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["panel", "--input", str(data), "--outdir", str(out1),
                     "--emit-every", "10"]) == 0
    with one_cpu_mask():  # the serial reader; the first run may read in byte ranges
        assert cli_main(["panel", "--input", str(data), "--outdir", str(out2),
                         "--emit-every", "10"]) == 0

    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    identical = names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1)

    manifest = json.loads((out1 / "manifest.json").read_text())
    years_ok = len(manifest["years"]) == 53 and all(
        "files" in entry for entry in manifest["years"].values())

    # hub-concentrating panel: the dominant clique shrinks year over year,
    # so the half-of-trade club can only shrink too
    nets = []
    n = 20
    for t in range(9):
        h = 10 - t
        edges = {}
        hubs = [f"C{i:02d}" for i in range(h)]
        for i in range(h):
            for j in range(i + 1, h):
                edges[(hubs[i], hubs[j])] = (500.0, 500.0)
        for i in range(n):
            a, b = f"C{i:02d}", f"C{(i + 1) % n:02d}"
            if a > b:
                a, b = b, a
            edges.setdefault((a, b), (0.5, 0.5))
        (a, b), (w_exp, w_imp) = zip(*edges), zip(*edges.values())
        nets.append(AnnualTradeNetwork(1990 + t, a, b, w_exp, w_imp))
    values = [rich_club_size(rich_club_curve(net), net)[1] for net in nets]
    non_increasing = all(p >= q for p, q in zip(values, values[1:]))

    elapsed = time.perf_counter() - start
    ok = identical and years_ok and non_increasing and elapsed < 60.0
    report(8, "end-to-end-determinism", ok,
           f"{len(names1)} files byte-identical, S_RC monotone, {elapsed:.1f}s")


def test_criterion_9_ingest_round_trip(tmp_path):
    params = GravityParams(n_countries=50, link_density_target=0.4,
                           noise_logsd=1.5, seed=21)
    ok = True
    for year in (1955, 1999):
        net = generate_network(params, year)
        path = tmp_path / f"{year}.csv"
        write_network_records([net], path)
        rebuilt = build_network(pair_columns(read_columns(path)), year)
        ok = ok and snapshot_dumps(rebuilt) == snapshot_dumps(net)
    report(9, "ingest-round-trip", ok, "snapshots bit-identical after CSV cycle")
