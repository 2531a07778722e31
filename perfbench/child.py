"""Run one ``tradenet`` CLI command in a fresh interpreter and record its cost.

Usage: ``python3 child.py STATS_JSON TRACE [tradenet arguments...]``

Imports ``tradenet.cli`` (the end of set-up), then, when arguments are
given, runs ``tradenet.cli.main`` on them, with spans installed when TRACE
is 1, and writes the timings to STATS_JSON.  Without arguments it only
imports, which is how the benchmark samples set-up time on its own.
"""

import json
import resource
import sys
import time


def main() -> int:
    stats_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import tradenet.cli as cli

    import_done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats = {"import_done": import_done,
             "import_cpu_s": usage.ru_utime + usage.ru_stime,
             "tradenet_file": cli.__file__}
    if argv:
        tracer = None
        if trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        t1 = time.perf_counter()
        stats.update(rc=rc, wall_s=t1 - t0)
        if tracer is not None:
            stats["trace"] = tracer.report(t0, t1)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return stats.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
