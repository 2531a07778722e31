"""tradenet benchmark: the CLI, run as a user runs it, on seeded workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the root of a tradenet checkout; the program is imported from its
``src``.  One run writes the workload's inputs, samples set-up time, then
repeats the workload's commands, each in a fresh interpreter and outdir,
for about ``--seconds``, checking every command's outputs.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of traced repetitions with ``--trace 1``.  ``--smoke``
runs all four workloads at a tiny size, traced and untraced, in seconds.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"
# Import-only children before each repetition and after the last one, so
# the set-up samples spread over the whole run.
SETUP_PROBES = 3
WARMUP_PROBES = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, tiny, traced and untraced; exit 1 on failure")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tradenet" / "cli.py").is_file():
        print("error: run from the root of a tradenet checkout (no src/tradenet/cli.py)",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    result, detail = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:>14.6g} {m['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def smoke(root: Path) -> int:
    """Every workload at the tiny size, untraced and traced.  Besides each
    run's own checks, every declared per-layer metric must read non-zero on
    some workload, which catches a metric name that matches nothing."""
    ok = True
    never_moved = {name for name, _ in declared_metrics()["per_layer"]}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, detail = run(root, name, workloads.DEFAULT_SEED, 1.0, trace, tiny=True)
            ok = ok and result["correct"]
            if trace:
                never_moved -= {k for k, m in result["metrics"].items() if m["value"]}
            print(f"{name:13s} trace={int(trace)} {'ok' if result['correct'] else 'FAIL'} "
                  f"attempted={result['attempted']} problems={detail['problems'][:3]}")
    if never_moved:
        print(f"per-layer metrics that read 0 on every workload: {sorted(never_moved)}")
    return 0 if ok and not never_moved else 1


def declared_metrics() -> dict[str, list[tuple[str, str]]]:
    """(name, unit) of the metrics BENCHMARK.json declares, by kind."""
    spec = json.loads(BENCHMARK.read_text())
    return {kind: [(m["name"], m["unit"]) for m in spec[kind]]
            for kind in ("end_to_end", "per_layer")}


# ---------------------------------------------------------------------------
# One run


def run(root: Path, name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    rel_work = Path(".perfbench_work") / name
    work = root / rel_work
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(root, rel_work, name, seed, seconds, trace, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(root, rel_work, name, seed, seconds, trace, tiny):
    detail = {"workload": name, "seed": seed, "tiny": tiny, "trace": trace,
              "environment": environment(root)}
    t_inputs = time.perf_counter()
    prepared = workloads.WORKLOADS[name](seed, tiny, root, rel_work)
    detail["input_s"] = time.perf_counter() - t_inputs
    detail["input_sha256"] = prepared.input_sha256
    problems = list(prepared.problems)
    env = child_env(root)
    for _ in range(WARMUP_PROBES):  # fill the bytecode and page caches
        spawn(root, env, rel_work / "warmup.json", [])
    pinned = json.loads((HERE / "expected.json").read_text())["tiny" if tiny else "full"]
    # command index -> combined output digest: pinned at the default seed,
    # else that of the first repetition
    digests = dict(enumerate(pinned.get(name, []))) if seed == workloads.DEFAULT_SEED else {}

    setups, reps, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        setups += probe_setup(root, env, rel_work, problems)
        rep = {"traced": trace and len(reps) % 3 != 0,  # untraced, traced, traced, ...
               "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "files": 0, "bytes": 0,
               "trace": []}
        for k, cmd in enumerate(prepared.commands):
            out = rel_work / f"rep{len(reps)}_cmd{k}"
            cmd_problems, digest = run_command(root, env, out, cmd, rep, prepared, setups)
            if digest is not None and digests.setdefault(k, digest) != digest:
                cmd_problems.append(f"output digest {digest} differs from {digests[k]}"
                                    " (pinned, or of the first repetition)")
            attempted += 1
            if cmd_problems:
                failed += 1
                problems += [f"rep {len(reps)} command {k}: {p}" for p in cmd_problems]
        rep["elapsed_s"] = time.perf_counter() - rep_start
        reps.append(rep)
        # Start another repetition if it should end within half a repetition
        # of the deadline: a run then measures about --seconds on average.
        elapsed = time.perf_counter() - start
        next_rep = statistics.median(r["elapsed_s"] for r in reps)
        need_more = trace and sum(r["traced"] for r in reps) < 2
        if not need_more and elapsed + next_rep / 2 > seconds:
            break
    setups += probe_setup(root, env, rel_work, problems)

    detail.update(output_digests=[digests.get(k) for k in range(len(prepared.commands))],
                  repetitions=len(reps), problems=problems,
                  measured_s=time.perf_counter() - start,
                  wall_s_each=[r["wall_s"] for r in reps if not r["traced"]])
    values = (per_layer_values(reps, prepared, problems) if trace
              else end_to_end_values(reps, setups, attempted, failed))
    # A function or layer the workload never calls reads 0.
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in declared_metrics()["per_layer" if trace else "end_to_end"]}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def probe_setup(root, env, rel_work, problems) -> list[float]:
    """Set-up times of SETUP_PROBES import-only children."""
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(root, env, rel_work / "probe.json", [])
        problems.extend(f"set-up probe: {p}" for p in probe["problems"])
        if not probe["problems"]:
            setups.append(probe["setup_s"])
    return setups


def run_command(root, env, out, cmd, rep, prepared, setups):
    """Run one command of a repetition into ``out``, check and delete its
    outputs, and add its costs to ``rep``.  Returns the problems found and
    the combined digest of the checked outputs (None if the command failed)."""
    stats = spawn(root, env, out.with_suffix(".json"), cmd.argv(str(out)), rep["traced"])
    problems, digest = stats["problems"], None
    if not problems:
        setups.append(stats["setup_s"])
        rep["wall_s"] += stats["wall_s"]
        rep["cpu_s"] += stats["cpu_s"]
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], stats["peak_rss_mb"])
        problems, digests = cmd.check(root / out)
        digest = workloads.combined_digest(digests)
        written = [p for p in (root / out).rglob("*") if p.is_file()]
        rep["files"] += len(written)
        rep["bytes"] += sum(p.stat().st_size for p in written)
        if rep["traced"]:
            problems += check_trace(stats["trace"], stats["wall_s"], cmd, prepared)
            rep["trace"].append(stats["trace"])
    shutil.rmtree(root / out, ignore_errors=True)
    return problems, digest


def end_to_end_values(reps, setups, attempted, failed) -> dict[str, float]:
    def med(key):
        return statistics.median(r[key] for r in reps)

    return {"wall_s": med("wall_s"), "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"), "setup_s": statistics.median(setups),
            "success_rate": 1.0 - failed / attempted}


def per_layer_values(reps, prepared, problems) -> dict[str, float]:
    """Self times and waits (medians over traced repetitions, each summed
    over its commands), tracing overhead and counts."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    samples = []
    for r in traced:
        rep = {}
        for t in r["trace"]:
            values = dict(t["counts"], **{"cli.self_s": t["cli_self_s"]})
            values.update((f"{name}_s", v) for name, v in t["self_s"].items())
            values.update((f"{layer}.wait_s", v) for layer, v in t["wait_s"].items())
            values.update((f"{name}_calls", n) for name, n in t["calls"].items())
            for k, v in values.items():
                rep[k] = rep.get(k, 0) + v
        samples.append(rep)
    keys = set().union(*samples)
    out = {k: statistics.median(rep.get(k, 0) for rep in samples) for k in keys}

    counts = [{k: v for k, v in rep.items() if isinstance(v, int)} for rep in samples]
    if any(c != counts[0] for c in counts):
        problems.append("trace counts differ between repetitions")
    out.update(counts[0])
    out.update(prepared.counts)
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    nodes = out.get("graph.nodes", 0)
    out["metrics.node_metrics_per_node"] = (
        out.get("metrics.node_metrics_calls", 0) / nodes if nodes else 0.0)
    out["cli.files_written"] = traced[0]["files"]
    out["cli.bytes_written"] = traced[0]["bytes"]
    return out


def check_trace(report, wall_s, cmd, prepared) -> list[str]:
    """Span bookkeeping and the counts the benchmark knows from its inputs."""
    problems = []
    if not report["nesting_ok"]:
        problems.append("trace: spans do not nest inside the command")
    # Self times plus cli.self_s equal the wall by construction; the layer
    # self times must also equal the time some span was open, which is
    # computed separately.
    layers = sum(report["self_s"].values())
    if abs(layers - report["covered_s"]) > 1e-6 * wall_s + 1e-6:
        problems.append(f"trace: layer self times add up to {layers} s, but spans were"
                        f" open for {report['covered_s']} s")
    counts = report["counts"]
    if counts["ingest.rows"] and counts["ingest.rows"] != prepared.rows:
        problems.append(f"trace: {counts['ingest.rows']} rows parsed, input has {prepared.rows}")
    if counts["graph.links"] and counts["graph.links"] != cmd.links:
        problems.append(f"trace: {counts['graph.links']} links, expected {cmd.links}")
    if (counts["percolation.insertions"]
            and counts["percolation.insertions"] != 2 * counts["graph.links"]):
        problems.append("trace: percolation insertions != 2 x links")
    return problems


# ---------------------------------------------------------------------------
# Child processes


def child_env(root: Path) -> dict[str, str]:
    """The whole environment of every child: one BLAS thread, fixed hashing."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "LC_ALL": "C.UTF-8",
           "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(root: Path, env, stats_rel: Path, argv: list[str], traced: bool = False) -> dict:
    """Run child.py; returns its stats plus set-up, CPU and memory figures."""
    stats_path = root / stats_rel
    stats_path.unlink(missing_ok=True)
    err_path = stats_path.with_suffix(".stderr")
    with open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(stats_path),
                                 "1" if traced else "0", *argv],
                                cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    try:
        stats = json.loads(stats_path.read_text())
    except (OSError, ValueError):
        stats = {}
    if proc.returncode != 0 or "import_done" not in stats:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit code {proc.returncode}: {' '.join(tail)}")
    elif not Path(stats["tradenet_file"]).resolve().is_relative_to((root / "src").resolve()):
        problems.append(f"imported tradenet from {stats['tradenet_file']}, not this checkout")
    else:
        stats["setup_s"] = stats["import_done"] - t_spawn
        stats["cpu_s"] = usage.ru_utime + usage.ru_stime - stats["import_cpu_s"]
        stats["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    stats["problems"] = problems
    return stats


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
        "loadavg_at_start": os.getloadavg(),
        "child_env": {k: v for k, v in child_env(root).items() if k != "PATH"},
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git; "unknown" when it is not a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
