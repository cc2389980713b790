"""skewtab benchmark: scripted research sessions of real ``skewtab ... --json``
queries, end-to-end metrics untraced and per-layer metrics traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload skew --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one caller.  A session is one fresh worker
interpreter that runs the seeded command list (see ``harness.command_list``),
each query sent only when the previous one has returned, so caches start
cold and warm up across the list.  Sessions run one after another until
``--seconds`` have passed (at least three).  Each query's latency is its
best over the sessions: where cores are shared, whole stretches of ten
seconds or more can run up to half again slower, and the best of several
sessions spread over the run removes that while keeping each query's
cold-cache position in the list.  Every query's output in every session is checked against the
pool's reference.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness
from tracer import LAYERS

WORKLOADS = ("skew", "contain", "limits")
SETUP_PROBES = 10
MIN_SESSIONS = 3
TAIL_BEYOND = 10  # the tail percentile is the highest with this many queries beyond it
TIME_BUDGET_S = 170.0  # the whole invocation, probes included

# Known defects, run once per invocation and untimed: a fix turns a fast
# failure into a slower success, which would read as a regression if timed.
DEFECT_PROBES = (
    ["asym", "tn", "--n", "20000", "--json"],
    ["skew", "--outer", "1500", "--method", "char", "--json"],
    ["skew", "--outer", "6,5,4,3,2,1,1,1,1,1,1", "--json"],  # 26 cells, default --method all
)

PER_LAYER = (
    [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [
        ("characters.character.calls", "count"),
        ("characters.character.distinct_keys", "count"),
        ("characters.character.self_s", "s"),
        ("characters.syt_count.calls", "count"),
        ("characters.syt_count.self_s", "s"),
        ("skew_count.skew_syt_brute.total_s", "s"),
        ("skew_count.skew_syt_det.total_s", "s"),
        ("skew_count.skew_syt_char.total_s", "s"),
        ("skew_count.skew_syt_det.calls", "count"),
        ("exact.integer_det.calls", "count"),
        ("exact.integer_det.self_s", "s"),
        ("partitions.partitions_of.yields", "count"),
        ("partitions.partitions_of.self_s", "s"),
        ("containment.N_direct.total_s", "s"),
        ("containment.N_expansion.total_s", "s"),
        ("containment.N_binomial.total_s", "s"),
        ("containment.t_shift_coeff.calls", "count"),
        ("asymptotics.bulk_mass.total_s", "s"),
        ("asymptotics.super_schur_value.total_s", "s"),
        ("sequences.involutions.calls", "count"),
        ("cache.syt_count.size", "count"),
        ("cache.t_shift_coeff.size", "count"),
        ("trace.overhead_s", "s"),
    ]
)


def tail_ms(latencies: list[float]) -> float:
    """Latency with exactly TAIL_BEYOND queries beyond it, in ms."""
    ordered = sorted(latencies)
    return 1000 * ordered[len(ordered) - TAIL_BEYOND - 1]


def best_latencies(sessions: list[dict]) -> list[float]:
    """Each query's lowest latency over the sessions, in seconds."""
    return [min(column) for column in zip(*([r["latency_s"] for r in p["results"]] for p in sessions))]


def end_to_end(setups: list[float], sessions: list[dict]) -> dict:
    best = best_latencies(sessions)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best), "s"),
        "query_p50_ms": (1000 * statistics.median(best), "ms"),
        "query_tail_ms": (tail_ms(best), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in sessions), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    def value(report: dict, name: str) -> float:
        if name.startswith("cache."):
            return report["cache_sizes"][name.split(".")[1]]
        trace = report["trace"]
        scope, _, field = name.rpartition(".")
        stats = trace["layers"] if scope in LAYERS else trace["functions"]
        return stats.get(scope, {}).get(field, 0)

    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = (sum(best_latencies(traced)) - sum(best_latencies(untraced)), unit)
        else:
            reports = untraced if name.startswith("cache.") else traced
            metrics[name] = (statistics.median(value(p, name) for p in reports), unit)
    return metrics


def _status(result: dict) -> str:
    status = result["status"]
    return f"exit {status}" if isinstance(status, int) else status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    src = harness.HERE.parent / "src"
    if not (src / "skewtab" / "__init__.py").is_file():
        print(f"no skewtab sources under {src}", file=sys.stderr)
        return 2
    items = harness.command_list(harness.load_pool(), args.workload, args.seed)
    argvs = [item["argv"] for item in items]

    def budget() -> float:
        return max(5.0, TIME_BUDGET_S - (time.perf_counter() - began))

    try:
        _, probe = harness.run_worker(src, list(DEFECT_PROBES), timeout=budget())
        setups = [harness.run_worker(src, None, timeout=budget())[0] for _ in range(SETUP_PROBES)]
        untraced, traced, failures = [], [], []
        deadline = time.perf_counter() + args.seconds
        while len(untraced) + len(traced) < MIN_SESSIONS or time.perf_counter() < deadline:
            trace = bool(args.trace) and len(untraced) > len(traced)  # traced runs alternate
            setup_s, report = harness.run_worker(src, argvs, trace=trace, timeout=budget())
            (traced if trace else untraced).append(report)
            if not trace:
                setups.append(setup_s)
            for item, result in zip(items, report["results"]):
                reason = harness.check(item, result)
                if reason:
                    failures.append(f"{' '.join(item['argv'])}: {reason}")
    except harness.WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(p["results"]) for p in untraced + traced)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(setups, untraced)

    q = len(items)
    print(f"workload {args.workload}  seed {args.seed}  {q} queries per session  "
          f"{len(untraced)} untraced + {len(traced)} traced sessions  {len(setups)} set-ups")
    print(f"latencies are each query's best over the sessions; wall_s is their sum; "
          f"query_tail_ms is p{100 * (q - TAIL_BEYOND) / q:.1f}, the {TAIL_BEYOND + 1}th largest of {q}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"error_rate {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    for argv, result in zip(DEFECT_PROBES, probe["results"]):
        print(f"known-defect probe: skewtab {' '.join(argv)} -> {_status(result)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
