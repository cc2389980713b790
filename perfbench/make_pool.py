"""Write ``pool.json``: every query the benchmark workloads can ask, with the
reference digest of each query's exact output.

Usage: python3 perfbench/make_pool.py   (from the repository root)

Shapes and parameters come from a fixed generator seed, so the pool is the
same on every run of this script.  Each query is run once through the
worker, and the reference is accepted only after checks that use routes the
query itself did not use: the char and det forms of one skew shape agree,
det agrees with det on the conjugate shape, expansion agrees with binomial,
probabilities agree with N(n; alpha) / t_n by the binomial route, involution
numbers agree with the recurrence computed here, and two-row limit ratios
agree with a ballot-path count computed here.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from math import comb

import harness

POOL_SEED = 20010615
VARIANTS = 6
SMALL_SHAPES = [  # every partition of 1..6 cells
    (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2), (2, 1, 1),
    (1, 1, 1, 1), (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
    (1, 1, 1, 1, 1), (6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1),
    (3, 1, 1, 1), (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
]
EPS_CHOICES = ("1/4", "1/3", "1/2", "2/3", "1", "3/2")
CONJUGATE_CHECK_MAX_ROWS = 40  # a det on more rows than this is too slow to use as a check


def fmt(lam) -> str:
    return ",".join(map(str, lam))


def conjugate(lam):
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0])) if lam else ()


def contains(lam, alpha) -> bool:
    return len(alpha) <= len(lam) and all(a <= b for a, b in zip(alpha, lam))


def _addable(lam):
    return [i for i in range(len(lam) + 1) if i == 0 or lam[i - 1] > (lam[i] if i < len(lam) else 0)]


def _removable(lam):
    return [i for i in range(len(lam)) if i == len(lam) - 1 or lam[i] > lam[i + 1]]


def _add(lam, i):
    return lam[:i] + (lam[i] + 1,) + lam[i + 1:] if i < len(lam) else lam + (1,)


def _remove(lam, i):
    return tuple(p for p in lam[:i] + (lam[i] - 1,) + lam[i + 1:] if p)


def resize(lam, size: int, rng: random.Random):
    """Add or remove random corner cells until lam has ``size`` cells."""
    while sum(lam) < size:
        lam = _add(lam, rng.choice(_addable(lam)))
    while sum(lam) > size:
        lam = _remove(lam, rng.choice(_removable(lam)))
    return lam


def near_staircase(size: int, rng: random.Random):
    """A staircase of about ``size`` cells with a few random corners moved."""
    m = max(1, round(((8 * size + 1) ** 0.5 - 1) / 2))
    lam = tuple(range(m, 0, -1))
    for _ in range(2):
        lam = _add(lam, rng.choice(_addable(lam)))
        lam = _remove(lam, rng.choice(_removable(lam)))
    return resize(lam, size, rng)


def random_shape(size: int, rng: random.Random, max_rows: int = 8):
    """Sorted random composition of ``size`` into 2..max_rows parts."""
    rows = rng.randint(2, min(max_rows, size))
    cuts = sorted(rng.sample(range(1, size), rows - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [size])]
    return tuple(sorted(parts, reverse=True))


def skew_shape(size: int, staircase_like: bool, rng: random.Random):
    """(outer, inner) with |inner| in 1..6 and |outer/inner| == size."""
    inner = rng.choice(SMALL_SHAPES)
    while True:
        k = sum(inner)
        outer = near_staircase(size + k, rng) if staircase_like else random_shape(size + k, rng)
        if contains(outer, inner):
            return outer, inner
        inner = rng.choice(SMALL_SHAPES)


def subshape_count(lam) -> int:
    """Number of partitions contained in lam (the order ideals of its diagram)."""
    ways = {p: 1 for p in range(lam[0] + 1)} if lam else {0: 1}  # keyed by the last part
    for part in lam[1:]:
        ways = {p: sum(w for q, w in ways.items() if q >= p) for p in range(part + 1)}
    return sum(ways.values())


def skew_argv(outer, inner, method: str | None) -> list[str]:
    argv = ["skew", "--outer", fmt(outer), "--inner", fmt(inner)]
    return argv + (["--method", method] if method else []) + ["--json"]


def middle(draw, cost) -> list:
    """VARIANTS draws from the middle of a sample ranked by a cost proxy.

    Runs on different seeds are compared with each other, so the variants of
    one slot should cost about the same; the proxy is what the slowest route
    of the query scales with.
    """
    sample = sorted((draw() for _ in range(5 * VARIANTS)), key=cost)
    return sample[2 * VARIANTS:3 * VARIANTS]


def skew_slots(rng: random.Random) -> list[dict]:
    def outer_subshapes(shape):  # the brute and char routes visit sub-shapes of the outer shape
        return subshape_count(shape[0])

    slots = []
    for i in range(40):  # <= 25 cells, all three routes
        shapes = middle(lambda: skew_shape(10 + i % 16, i % 2 == 0, rng), outer_subshapes)
        slots.append({"band": "skew-all-le25",
                      "variants": [[skew_argv(outer, inner, None)] for outer, inner in shapes]})
    for i in range(40):  # 26-45 cells, char and det asked separately
        staircase_like = i % 2 == 0
        # near-staircase shapes stop at 36 cells: larger ones push a session's
        # character cache across a dict resize, and peak RSS jumps between seeds
        size = 26 + (i // 2) * (10 if staircase_like else 19) // 19
        shapes = middle(lambda: skew_shape(size, staircase_like, rng), outer_subshapes)
        slots.append({"band": "skew-char-det-26to45", "variants": [
            [skew_argv(outer, inner, "char"), skew_argv(outer, inner, "det")]
            for outer, inner in shapes]})
    for i in range(40):  # 60-300 cells, det only; its matrix has one row per row of outer
        shapes = middle(lambda: skew_shape(60 + i * 240 // 39, i % 2 == 0, rng),
                        lambda shape: len(shape[0]))
        slots.append({"band": "skew-det-60to300",
                      "variants": [[skew_argv(outer, inner, "det")] for outer, inner in shapes]})
    return slots


def contain_slots(rng: random.Random) -> list[dict]:
    slots = []
    # N_direct walks the partitions of n until the first part drops below
    # alpha's, so a slot fixes n, |alpha| and alpha's first part
    groups = [[a for a in SMALL_SHAPES if (sum(a), a[0]) == (k, w)]
              for k in range(1, 7) for w in range(1, k + 1)]
    for n, shapes in zip(list(range(8, 27)) + [28], groups):
        slots.append({"band": "contain-all-le26" if n <= 26 else "contain-all-28", "variants": [
            [["contain", "--n", str(n), "--alpha", fmt(rng.choice(shapes)), "--json"]]
            for _ in range(VARIANTS)]})
    for i in range(8):  # one large alpha asked at four n, so coefficients are reused
        # binomial sums a det over every sub-shape of alpha
        alphas = middle(lambda: random_shape(8 + i, rng, max_rows=6), subshape_count)
        slots.append({"band": "contain-large-alpha", "variants": [
            [["contain", "--n", str(n + rng.randint(0, 50)), "--alpha", fmt(alpha),
              "--method", method, "--json"]
             for n, method in ((50, "expansion"), (400, "binomial"), (900, "expansion"), (1450, "binomial"))]
            for alpha in alphas]})
    slots.append({"band": "contain-table", "variants": [[["table", "--json"]]]})
    return slots


def limits_slots(rng: random.Random) -> list[dict]:
    slots = []
    for i, n in enumerate(list(range(24, 35)) + [40]):
        # fixed per slot: the cost of a window grows steeply with n and eps
        eps = EPS_CHOICES[-1 - i % len(EPS_CHOICES)]
        slots.append({"band": "asym-mass", "variants": [
            [["asym", "mass", "--n", str(n), "--eps", eps, "--json"]]]})
    for i in range(15):
        # n spreads over 200..2500 across slots and varies little within one,
        # since the cost of the big-integer work grows with n
        n_lo = 200 + i * 150
        slots.append({"band": "asym-tn", "variants": [
            [["asym", "tn", "--n", str(n_lo + rng.randint(0, 30)),
              "--order", str(rng.randint(0, 2)), "--json"]] for _ in range(VARIANTS)]})
        slots.append({"band": "asym-shift", "variants": [
            [["asym", "shift", "--n", str(n_lo + rng.randint(0, 30)),
              "--m", str(rng.randint(0, 6)), "--json"]] for _ in range(VARIANTS)]})
        slots.append({"band": "asym-prob", "variants": [
            [["asym", "prob", "--n", str(20 + i * 100 + rng.randint(0, 30)),
              "--alpha", fmt(random_shape(2 + i % 8, rng, max_rows=4)), "--json"]]
            for _ in range(VARIANTS)]})
        variants = []
        for _ in range(VARIANTS):
            a2 = rng.randint(1, 4)
            a1 = rng.randint(a2, 9 - a2)
            variants.append([["asym", "vk", "--alpha", f"{a1},{a2}", "--a", "1/2,1/2",
                              "--b", "", "--m", str(10 + i * 26 + rng.randint(0, 10)), "--json"]])
        slots.append({"band": "asym-vk", "variants": variants})
    return slots


GENERATORS = {"skew": skew_slots, "contain": contain_slots, "limits": limits_slots}


def involutions(n: int) -> int:
    a, b = 1, 1
    for m in range(2, n + 1):
        a, b = b, b + (m - 1) * a
    return b if n >= 1 else 1


def two_row_paths(m: int, a1: int, a2: int) -> int:
    """Lattice paths from shape (a1, a2) to (m, m) inside two rows: f^((m,m)/(a1,a2))."""
    prev: dict[int, int] = {}  # ways to reach (r1, r2 - 1), keyed by r1
    for r2 in range(a2, m + 1):
        cur: dict[int, int] = {}
        for r1 in range(max(a1, r2), m + 1):
            start = 1 if (r1, r2) == (a1, a2) else 0
            cur[r1] = start + cur.get(r1 - 1, 0) + prev.get(r1, 0)
        prev = cur
    return prev[m]


def _value(record: dict, key: str) -> Fraction:
    return Fraction(record["results"][key])


def cross_checks(argv: list[str], record: dict, run) -> list[str]:
    """Extra queries or local recomputations that the reference must agree with."""
    args = dict(zip(argv[1::2], argv[2::2])) if argv[0] != "asym" else dict(zip(argv[2::2], argv[3::2]))
    problems = []
    if argv[0] == "skew" and args.get("--method") == "det":
        outer, inner = (tuple(map(int, args[k].split(","))) for k in ("--outer", "--inner"))
        if outer[0] > CONJUGATE_CHECK_MAX_ROWS:
            return problems
        other = run(skew_argv(conjugate(outer), conjugate(inner), "det"))
        if other["results"]["count"] != record["results"]["count"]:
            problems.append("det differs on the conjugate shape")
    elif argv[0] == "contain" and "--method" in args:
        other_method = "binomial" if args["--method"] == "expansion" else "expansion"
        other = run(["contain", "--n", args["--n"], "--alpha", args["--alpha"], "--method", other_method, "--json"])
        if other["results"]["N"] != record["results"]["N"]:
            problems.append("expansion and binomial differ")
    elif argv[:2] in (["asym", "tn"], ["asym", "shift"]):
        n = int(args["--n"]) - (int(args["--m"]) if argv[1] == "shift" else 0)
        if int(record["results"]["exact"]) != involutions(n):
            problems.append("exact t_n differs from the recurrence")
    elif argv[:2] == ["asym", "prob"]:
        n = args["--n"]
        other = run(["contain", "--n", n, "--alpha", args["--alpha"], "--method", "binomial", "--json"])
        if _value(record, "exact") != Fraction(int(other["results"]["N"]), involutions(int(n))):
            problems.append("probability differs from N_binomial / t_n")
    elif argv[:2] == ["asym", "vk"]:
        a1, a2 = map(int, args["--alpha"].split(","))
        m = int(args["--m"])
        want = Fraction(two_row_paths(m, a1, a2), comb(2 * m, m) // (m + 1))
        if _value(record, "exact_ratio") != want:
            problems.append("two-row ratio differs from the ballot-path count")
    return problems


def main() -> int:
    src = harness.HERE.parent / "src"
    pool = {"pool_seed": POOL_SEED, "workloads": {}}
    failures = 0
    for workload, generate in GENERATORS.items():
        slots = generate(random.Random(f"{POOL_SEED}-{workload}"))
        argvs = [e for slot in slots for group in slot["variants"] for e in group]
        _, report = harness.run_worker(src, argvs, timeout=3000)
        results = dict(zip(map(tuple, argvs), report["results"]))

        def run(argv):
            _, rep = harness.run_worker(src, [argv])
            return json.loads(rep["results"][0]["stdout"])

        for slot in slots:
            for g, group in enumerate(slot["variants"]):
                entries = []
                for argv in group:
                    result = results[tuple(argv)]
                    if result["status"] != 0:
                        print(f"FAIL {argv}: exit {result['status']} {result['stderr']}", file=sys.stderr)
                        failures += 1
                        continue
                    record = json.loads(result["stdout"])
                    problems = ([] if record.get("agree") is not False else ["routes disagree"])
                    problems += cross_checks(argv, record, run)
                    for problem in problems:
                        print(f"FAIL {argv}: {problem}", file=sys.stderr)
                    failures += len(problems)
                    entries.append(dict(argv=argv, **harness.reference_of(result["stdout"])))
                if group[0][0] == "skew" and len(group) == 2:
                    counts = {json.loads(results[tuple(a)]["stdout"])["results"]["count"] for a in group}
                    if len(counts) != 1:
                        print(f"FAIL {group}: char and det differ", file=sys.stderr)
                        failures += 1
                slot["variants"][g] = entries
        pool["workloads"][workload] = slots
        print(f"{workload}: {len(argvs)} queries, list wall {report['wall_s']:.1f} s", file=sys.stderr)
    if failures:
        print(f"{failures} reference checks failed; pool not written", file=sys.stderr)
        return 1
    with open(harness.POOL_PATH, "w") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
