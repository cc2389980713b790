"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

POOL = harness.load_pool()


def test_same_seed_gives_same_command_list():
    for workload in run.WORKLOADS:
        assert harness.command_list(POOL, workload, 7) == harness.command_list(POOL, workload, 7)


def test_other_seed_gives_other_list_with_same_bands():
    for workload in run.WORKLOADS:
        first = harness.command_list(POOL, workload, 7)
        second = harness.command_list(POOL, workload, 8)
        assert [i["argv"] for i in first] != [i["argv"] for i in second]
        assert Counter(i["band"] for i in first) == Counter(i["band"] for i in second)


def test_every_list_is_long_enough_for_the_tail_percentile():
    for workload in run.WORKLOADS:
        assert len(harness.command_list(POOL, workload, 0)) > 4 * run.TAIL_BEYOND


def _result(record: dict) -> dict:
    return {"status": 0, "stdout": json.dumps(record), "stderr": "", "latency_s": 0.001}


RECORD = {"command": "asym", "agree": None, "results": {"exact": "4", "rel_err": 0.25}}


def test_verifier_accepts_matching_output():
    entry = harness.reference_of(json.dumps(RECORD))
    assert harness.check(entry, _result(RECORD)) is None


def test_verifier_rejects_tampered_digest_and_changed_values():
    entry = harness.reference_of(json.dumps(RECORD))
    tampered = dict(entry, sha="0" * len(entry["sha"]))
    assert harness.check(tampered, _result(RECORD)) is not None
    changed = {**RECORD, "results": {"exact": "5", "rel_err": 0.25}}
    assert harness.check(entry, _result(changed)) is not None
    drifted = {**RECORD, "results": {"exact": "4", "rel_err": 0.2500001}}
    assert harness.check(entry, _result(drifted)) is not None
    disagree = {**RECORD, "agree": False}
    assert harness.check(harness.reference_of(json.dumps(disagree)), _result(disagree))


def test_verifier_rejects_failed_status():
    entry = harness.reference_of(json.dumps(RECORD))
    failed = {"status": 2, "stdout": "", "stderr": "error: boom", "latency_s": 0.001}
    assert "exit status 2" in harness.check(entry, failed)


def test_self_time_on_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 12.0])  # outer enters, inner 1..3, inner 4..10, outer leaves
    trace = tracer.Tracer(clock=lambda: next(ticks))
    inner = trace.wrap("exact.inner", lambda: None)

    def body():
        inner()
        inner()

    trace.wrap("cli.outer", body)()
    report = trace.report()
    assert report["functions"]["cli.outer"] == {"calls": 1, "total_s": 12.0, "self_s": 4.0, "yields": 0}
    assert report["functions"]["exact.inner"] == {"calls": 2, "total_s": 8.0, "self_s": 8.0, "yields": 0}
    assert report["layers"] == {"cli": {"calls": 1, "self_s": 4.0}, "exact": {"calls": 2, "self_s": 8.0}}


def test_generator_span_covers_resumptions_only():
    # gen created; next #1 0..1; consumer work 1..5; next #2 5..6; next #3 (exhausted) 6..7
    ticks = iter([0.0, 1.0, 5.0, 6.0, 6.0, 7.0])
    trace = tracer.Tracer(clock=lambda: next(ticks))

    def pair():
        yield 1
        yield 2

    gen = trace.wrap("partitions.pair", pair)
    assert list(gen()) == [1, 2]
    stat = trace.report()["functions"]["partitions.pair"]
    assert stat == {"calls": 1, "total_s": 3.0, "self_s": 3.0, "yields": 2}


def test_install_patches_every_namespace():
    sys.path.insert(0, str(harness.HERE.parent / "src"))
    import importlib

    skewtab = importlib.import_module("skewtab")
    skew_count = importlib.import_module("skewtab.skew_count")
    characters = importlib.import_module("skewtab.characters")
    originals = (characters.character, skew_count.character, skewtab.character)
    trace = tracer.Tracer()
    try:
        tracer.install(trace, skewtab)
        assert skew_count.character is characters.character is skewtab.character
        assert skew_count.character is not originals[0]
        assert skew_count.skew_syt_char(skew_count.SkewShape((3, 2), (1,))) == 5
        stats = trace.report()["functions"]
        assert stats["characters.character"]["calls"] > 0
        assert stats["skew_count.skew_syt_char"]["calls"] == 1
    finally:
        for module in list(sys.modules):
            if module == "skewtab" or module.startswith("skewtab."):
                del sys.modules[module]
