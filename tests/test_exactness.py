"""Every pool query and every extra argv below prints what the manifest says.

``tests/exactness.json`` holds one ``[argv, digest]`` line per argv: the
distinct argv of ``perfbench/pool.json`` in pool order, then ``EXTRA_ARGV``,
each first with ``--json`` and then without.  The digest is the first 12 hex
digits of the sha256 of ``json.dumps([status, stdout, stderr])`` from
``skewtab.cli.main`` run in this one process.  The pool is only read.

The extra argv end in the library's own messages, never argparse's, whose
usage text differs between Python versions.  A change that alters an output
on purpose regenerates the manifest with
``PYTHONPATH=src python3 tests/test_exactness.py`` and lists the changed
argv in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from skewtab import cli

ROOT = Path(__file__).resolve().parent.parent
POOL = ROOT / "perfbench" / "pool.json"
MANIFEST = Path(__file__).resolve().parent / "exactness.json"

EXTRA_ARGV = [
    ["table", "--max-k", "6"],
    ["contain", "--n", "30", "--alpha", "3,2,1"],
    ["contain", "--n", "5", "--alpha", "3,3"],
    ["skew", "--outer", "12,10,8,6,4,2", "--inner", "3,1", "--method", "char"],
    # the last t_n estimate below the float range, and the first above it
    ["asym", "tn", "--n", "295"],
    ["asym", "tn", "--n", "296"],
    # negative n: exit 7
    ["contain", "--n", "-1", "--alpha", "1"],
    ["asym", "tn", "--n", "-1"],
    ["asym", "prob", "--n", "-3", "--alpha", "2,1"],
    # other domain errors: exit 7
    ["asym", "shift", "--n", "5", "--m", "9"],
    ["asym", "mass", "--n", "30", "--eps", "0"],
    ["asym", "vk", "--alpha", "6", "--a", "1/2,1/2", "--m", "5"],
    # a non-partition and a decimal exponent past the digit limit: exit 2
    ["contain", "--n", "10", "--alpha", "1,2"],
    ["asym", "mass", "--n", "30", "--eps", "1e20000000"],
    # an inner shape outside the outer: exit 3
    ["skew", "--outer", "2,1", "--inner", "3"],
    ["skew", "--outer", "3,2", "--inner", "1,1,1"],
    # 26 cells under the default --method all, past the brute cap: exit 6
    ["skew", "--outer", "6,5,4,3,2,1,1,1,1,1,1"],
]


def manifest_argv() -> list[list[str]]:
    """The pool's distinct argv in pool order, then the extras, each in both forms."""
    pool = json.loads(POOL.read_text())
    base = [
        [arg for arg in entry["argv"] if arg != "--json"]
        for slots in pool["workloads"].values()
        for slot in slots
        for variant in slot["variants"]
        for entry in variant
    ] + EXTRA_ARGV
    seen, argvs = set(), []
    for argv in base:
        for form in (argv + ["--json"], argv):
            if tuple(form) not in seen:
                seen.add(tuple(form))
                argvs.append(form)
    return argvs


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:  # a crash is an output too, and never the recorded one
        status = type(exc).__name__
    text = json.dumps([status, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def test_every_output_matches_the_manifest():
    want = json.loads(MANIFEST.read_text())
    argvs = manifest_argv()
    assert argvs == [argv for argv, _ in want], "the argv list changed; regenerate the manifest"
    changed = [argv for argv, (_, sha) in zip(argvs, want) if digest(argv) != sha]
    assert not changed, f"{len(changed)} of {len(argvs)} outputs changed, first: {changed[:5]}"


if __name__ == "__main__":
    lines = [json.dumps([argv, digest(argv)]) for argv in manifest_argv()]
    MANIFEST.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} digests to {MANIFEST}")
