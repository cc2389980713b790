"""Benchmark worker: one fresh interpreter that runs one command list.

Usage: python3 -I worker.py SRC_DIR TRACE

The worker imports ``skewtab`` from SRC_DIR, prints ``ready`` (the parent
times set-up up to that line), then reads one JSON line holding a list of
argv lists.  It runs them in a closed loop through ``skewtab.cli.main``,
each with stdout and stderr captured, and writes one JSON object with every
query's status, latency and output, the wall time of the whole list, the
peak resident memory, cache sizes and, when TRACE is 1, the per-function
trace aggregates.  An empty stdin makes it exit at once (a set-up probe).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _run_query(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a result of the query, not of the worker
        status = type(exc).__name__
        err.write(repr(exc)[:500])
    latency = time.perf_counter() - start
    return {"status": status, "latency_s": latency, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:]}


def main() -> int:
    src, trace = Path(sys.argv[1]).resolve(), sys.argv[2] == "1"
    sys.path.insert(0, str(src))
    import skewtab
    from skewtab import characters, cli, containment

    if not Path(skewtab.__file__).resolve().is_relative_to(src):
        print(f"skewtab imported from {skewtab.__file__}, not {src}", file=sys.stderr)
        return 2
    caches = {"syt_count": characters.syt_count, "t_shift_coeff": containment.t_shift_coeff}
    print("ready", flush=True)

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    queries = json.loads(line)
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, skewtab)

    start = time.perf_counter()
    results = [_run_query(cli, argv) for argv in queries]
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "results": results,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "cache_sizes": {name: fn.cache_info().currsize for name, fn in caches.items()},
        "trace": tracer.report() if tracer else None,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
