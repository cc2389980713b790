"""Shared pieces of the benchmark: the query pool, the seeded command list,
output verification and the worker process.

The pool (``pool.json``, written by ``make_pool.py``) holds every query a
workload can ask, grouped into slots.  A slot is one place in the command
list; it has several variants, and each variant is a group of one or more
queries (a group keeps queries that must share inputs together, such as the
char and det forms of one skew shape).  A seed picks one variant per slot,
so every seed has the same band composition.  Each query carries the digest of the exact fields of its
reference output and the reference values of its float fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"
WORKER = HERE / "worker.py"
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


def command_list(pool: dict, workload: str, seed: int) -> list[dict]:
    """The seeded command list: one variant per slot.

    Slots keep their pool order within a band and the bands take turns, so a
    session walks through sizes the way a script would, and which queries
    find their sub-results already cached depends on the seed's variants,
    not on a shuffle.  Each item is a pool entry (``argv``, ``sha``,
    ``floats``) plus its ``band``.
    """
    rng = random.Random(f"{workload}/{seed}")
    bands: dict[str, list[list[dict]]] = {}
    for slot in pool["workloads"][workload]:
        group = [dict(entry, band=slot["band"]) for entry in rng.choice(slot["variants"])]
        bands.setdefault(slot["band"], []).append(group)
    items = []
    for turn in range(max(len(groups) for groups in bands.values())):
        for groups in bands.values():
            if turn < len(groups):
                items.extend(groups[turn])
    return items


def split_record(record, path: str = "") -> tuple[object, dict[str, float]]:
    """Separate a parsed JSON record into its exact part and its float leaves.

    Floats are replaced by None in the exact part and returned by path.
    """
    if isinstance(record, float):
        return None, {path: record}
    if isinstance(record, dict):
        exact, floats = {}, {}
        for key, value in record.items():
            exact[key], sub = split_record(value, f"{path}/{key}")
            floats.update(sub)
        return exact, floats
    if isinstance(record, list):
        exact, floats = [], {}
        for i, value in enumerate(record):
            part, sub = split_record(value, f"{path}/{i}")
            exact.append(part)
            floats.update(sub)
        return exact, floats
    return record, {}


def digest(exact) -> str:
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def reference_of(stdout: str) -> dict:
    """The ``sha`` and ``floats`` that a pool entry stores for this output."""
    exact, floats = split_record(json.loads(stdout))
    return {"sha": digest(exact), "floats": floats}


def check(entry: dict, result: dict) -> str | None:
    """None when the query's result matches its reference, else the reason."""
    if result["status"] != 0:
        return f"exit status {result['status']}: {result['stderr'].strip()[:200]}"
    try:
        record = json.loads(result["stdout"])
    except ValueError:
        return "output is not one JSON object"
    if record.get("agree") is False:
        return "routes disagree"
    exact, floats = split_record(record)
    if digest(exact) != entry["sha"]:
        return "exact fields differ from the reference"
    if floats.keys() != entry["floats"].keys():
        return "float fields differ from the reference"
    for key, want in entry["floats"].items():
        if not math.isclose(floats[key], want, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
            return f"float {key} = {floats[key]!r}, reference {want!r}"
    return None


class WorkerError(RuntimeError):
    """The worker process failed to start, crashed or ran out of time."""


def run_worker(src: Path, argvs: list[list[str]] | None, trace: bool = False,
               timeout: float = 150.0) -> tuple[float, dict | None]:
    """Start a fresh worker, time its set-up, and run ``argvs`` (None: set-up only).

    Returns (setup seconds, worker report or None).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(WORKER), str(src), "1" if trace else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "ready":
            _, err = proc.communicate(timeout=timeout)
            raise WorkerError(f"worker did not start: {err.strip()[-500:]}")
        payload = "" if argvs is None else json.dumps(argvs) + "\n"
        out, err = proc.communicate(payload, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker ran longer than {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {err.strip()[-500:]}")
    return setup_s, (json.loads(out) if argvs is not None else None)
