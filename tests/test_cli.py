import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import skewtab
from skewtab import asymptotics, characters, cli, containment, sequences, skew_count
from skewtab.containment import containment_probability
from skewtab.exact import IntegralityError
from skewtab.partitions import parse_partition
from skewtab.sequences import involutions


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    return code, json.loads(out), out


def test_skew_all_methods_agree(capsys):
    code, record, raw = run_json(capsys, ["skew", "--outer", "2,2,1", "--inner", "1"])
    assert code == 0
    assert record["agree"] is True
    assert record["results"]["count"] == "5"
    assert record["results"]["by_method"] == {"brute": "5", "det": "5", "char": "5"}


def test_skew_single_method(capsys):
    code, record, _ = run_json(
        capsys, ["skew", "--outer", "3", "--inner", "3", "--method", "det"]
    )
    assert code == 0
    assert record["results"]["count"] == "1"
    assert list(record["results"]["by_method"]) == ["det"]


def test_skew_invalid_shape_exit_3(capsys):
    code, out, err = run(capsys, ["skew", "--outer", "2,1", "--inner", "2,2"])
    assert code == 3
    assert "invalid skew shape" in err


def test_skew_parse_error_exit_2(capsys):
    code, out, err = run(capsys, ["skew", "--outer", "1,2", "--inner", ""])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["skew", "--outer", "26", "--method", "brute"],
        ["skew", "--outer", "6,5,4,3,2,1,1,1,1,1,1"],  # 26 cells, default --method all
    ],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_brute_cap_exits_6_with_empty_stdout(capsys, argv, json_flag):
    code, out, err = run(capsys, argv + json_flag)
    assert code == 6
    assert out == ""
    assert err == (
        "capacity limit: brute-force enumeration capped at 25 cells; "
        "use skew_syt_det or skew_syt_char\n"
    )


def test_contain_all_methods(capsys):
    code, record, _ = run_json(capsys, ["contain", "--n", "4", "--alpha", "2,1"])
    assert code == 0
    assert record["agree"] is True
    assert record["results"]["N"] == "3"
    assert record["results"]["P"] == "3/10"


def test_contain_small_n(capsys):
    code, record, _ = run_json(capsys, ["contain", "--n", "2", "--alpha", "3"])
    assert code == 0
    assert record["results"]["N"] == "0"
    assert record["results"]["P"] == "0"


def test_contain_text_output(capsys):
    code, out, err = run(capsys, ["contain", "--n", "3", "--alpha", "1"])
    assert code == 0
    assert "N(3; 1)" in out
    assert "agree     = True" in out


@pytest.mark.parametrize("method", ["all", "direct", "expansion", "binomial"])
def test_contain_negative_n_exits_7(capsys, method):
    code, out, err = run(capsys, ["contain", "--n", "-1", "--alpha", "2,1", "--method", method])
    assert code == 7
    assert out == ""
    assert err == "domain error: n must be nonnegative\n"


def test_contain_probability_is_the_same_under_every_method(capsys):
    for alpha in ["", "1", "2,1", "1,1,1", "3,1"]:
        for n in range(11):
            probs = set()
            for method in ["all", "direct", "expansion", "binomial"]:
                code, record, _ = run_json(
                    capsys, ["contain", "--n", str(n), "--alpha", alpha, "--method", method]
                )
                assert code == 0
                probs.add(record["results"]["P"])
            exact = containment_probability(n, parse_partition(alpha))
            assert probs == {cli._fmt_fraction(exact)}, (alpha, n, probs)


def test_table_matches(capsys):
    code, record, _ = run_json(capsys, ["table", "--max-k", "3", "--n-max", "8"])
    assert code == 0
    assert record["agree"] is True
    rows = record["results"]["rows"]
    single = [r for r in rows if r["alpha"] == "1"]
    assert [r["expansion"] for r in single][1:] == ["1", "2", "4", "10", "26", "76", "232", "764"]
    assert all(r["match"] for r in rows if r["match"] is not None)


def test_table_zero_rows_below_weight(capsys):
    code, record, _ = run_json(capsys, ["table", "--max-k", "5", "--n-max", "3"])
    assert code == 0
    for row in record["results"]["rows"]:
        if row["n"] < sum(int(p) for p in row["alpha"].split(",")):
            assert row["expansion"] == "0"


@pytest.mark.parametrize(
    "flag, value", [("--max-k", "-1"), ("--max-k", "0"), ("--n-max", "-2")]
)
def test_table_negative_bound_exits_7(capsys, flag, value):
    code, out, err = run(capsys, ["table", flag, value])
    assert code == 7
    assert out == ""
    assert err.startswith("domain error: ") and flag in err


@pytest.mark.parametrize(
    "argv",
    [
        "asym tn --n 0",
        "asym tn --n 5 --order 3",
        "asym shift --n 5 --m 10",
        "asym shift --n 5 --m -1",
        "asym mass --n 10 --eps 0",
        "asym mass --n 0",
        "asym prob --n 0 --alpha 1",
        "asym vk --alpha 1 --a 1/2,1/2 --m 0",
        "contain --n -1 --alpha 2,1",
        "table --max-k 0",
        "table --n-max -1",
    ],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_number_outside_its_domain_exits_7_with_empty_stdout(capsys, argv, json_flag):
    code, out, err = run(capsys, argv.split() + json_flag)
    assert code == cli.EXIT_DOMAIN == 7
    assert out == ""
    assert err.startswith("domain error: ") and err.count("\n") == 1


def test_domain_error_is_an_exported_value_error():
    assert issubclass(skewtab.DomainError, ValueError)
    with pytest.raises(skewtab.DomainError, match="^n must be nonnegative$"):
        containment.N_direct(-1, (2, 1))


def test_asym_tn(capsys):
    code, record, _ = run_json(capsys, ["asym", "tn", "--n", "50", "--order", "2"])
    assert code == 0
    assert record["results"]["exact"] == "27886995605342342839104615869259776"
    assert abs(record["results"]["rel_err"]) < 1e-4


def test_asym_shift(capsys):
    code, record, _ = run_json(capsys, ["asym", "shift", "--n", "100", "--m", "3"])
    assert code == 0
    assert abs(record["results"]["rel_err"]) < 0.005


def test_asym_prob(capsys):
    code, record, _ = run_json(capsys, ["asym", "prob", "--n", "30", "--alpha", "2,1"])
    assert code == 0
    assert record["results"]["exact"].count("/") == 1


def test_asym_vk(capsys):
    code, record, _ = run_json(
        capsys,
        ["asym", "vk", "--alpha", "2", "--a", "1/2,1/2", "--b", "", "--m", "100"],
    )
    assert code == 0
    assert record["results"]["estimate_ratio"] == "3/4"
    assert record["results"]["exact_ratio"] == "297/398"


def test_asym_vk_on_an_80_cell_alpha(capsys):
    # s_(40,40)(1/2, 1/2) = (1/4)**40, one 2 x 2 determinant; the power-sum
    # route would sum over all 15,796,476 partitions of 80
    code, record, _ = run_json(
        capsys, ["asym", "vk", "--alpha", "40,40", "--a", "1/2,1/2", "--m", "40"]
    )
    assert code == 0
    assert record["results"]["estimate_ratio"] == "1/1208925819614629174706176"


@pytest.mark.parametrize(
    "a, b, message",
    [
        ("-1/2", "", "frequencies must be nonnegative"),
        ("1/2", "0,1/4", "frequencies must be weakly decreasing"),
        ("1/4,1/2", "", "frequencies must be weakly decreasing"),
        ("2", "", "total frequency mass exceeds 1"),
        ("1/2", "1/2,1/4", "total frequency mass exceeds 1"),
    ],
)
def test_asym_vk_rejects_what_limit_spec_rejects(capsys, a, b, message):
    code, out, err = run(
        capsys, ["asym", "vk", "--alpha", "1", f"--a={a}", f"--b={b}", "--m", "3"]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("alpha", ["6", "2,2,1", "6,6"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_asym_vk_alpha_outside_the_two_row_shape_exits_7(capsys, monkeypatch, alpha, json_flag):
    # the user gave --alpha and --m, not a skew shape: a domain error, found
    # before the limit or any exact count is computed
    def refuse(*args):
        raise AssertionError("computed for an alpha that does not fit")

    monkeypatch.setattr(asymptotics, "super_schur_value", refuse)
    monkeypatch.setattr(skew_count, "skew_syt_det", refuse)
    argv = ["asym", "vk", "--alpha", alpha, "--a", "1/2,1/2", "--m", "5"] + json_flag
    assert run(capsys, argv) == (
        7,
        "",
        "domain error: kind=vk needs --alpha to fit in (--m, --m) = (5,5)\n",
    )


@pytest.mark.parametrize(
    "a, b", [("0", ""), ("1/2", ""), ("1/4", "1/4")], ids=["zero", "half", "half-split"]
)
def test_asym_vk_needs_total_mass_one(capsys, a, b):
    # the TVK limit is taken under frequencies of total exactly 1
    code, out, err = run(
        capsys, ["asym", "vk", "--alpha", "1", f"--a={a}", f"--b={b}", "--m", "3"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: TVK frequencies must sum to exactly 1\n"


def test_asym_mass(capsys):
    code, record, _ = run_json(capsys, ["asym", "mass", "--n", "16", "--eps", "1/2"])
    assert code == 0
    num, den = record["results"]["mass"].split("/")
    assert 0 <= int(num) <= int(den)


ASYM_DEFAULT_INPUTS = {
    "a": "", "alpha": "", "b": "", "eps": "1/2", "m": 0, "n": 50, "order": 2,
}


@pytest.mark.parametrize(
    "argv, inputs, results, text",
    [
        (
            ["tn", "--n", "10"],
            {"kind": "tn", "n": 10},
            {"estimate": 9483.903592081213, "exact": "9496", "rel_err": -0.0012738424514304103},
            "t(10) estimate (order 2) = 9.483904e+03\nt(10) exact = 9496\n"
            "relative error = -1.274e-03\n",
        ),
        (
            ["shift", "--n", "10", "--m", "2"],
            {"kind": "shift", "n": 10, "m": 2},
            {"estimate": 777.1086864952783, "exact": "764", "rel_err": 0.017157966616856247},
            "t(10-2) estimate = 7.771087e+02\nt(8) exact = 764\nrelative error = 1.716e-02\n",
        ),
        (
            ["prob", "--n", "10", "--alpha", "2,1"],
            {"kind": "prob", "n": 10, "alpha": "2,1"},
            {
                "estimate": 0.33279240779943875,
                "exact": "386/1187",
                "residual": -0.007602854303229822,
            },
            "P(10; 2,1) estimate = 0.3327924078\n"
            "P(10; 2,1) exact = 386/1187 = 0.3251895535\nresidual = -7.603e-03\n",
        ),
        (
            ["vk", "--alpha", "2", "--a", "1/2,1/2", "--m", "3"],
            {"kind": "vk", "alpha": "2", "a": "1/2,1/2", "m": 3},
            {"estimate_ratio": "3/4", "exact_ratio": "3/5", "lambda": "3,3", "rel_err": 0.25},
            "limit ratio s_alpha(a/-b) = 3/4\nexact ratio at lambda=(3,3): 3/5\n"
            "relative error = 2.500e-01\n",
        ),
        (
            ["mass", "--n", "9"],
            {"kind": "mass", "n": 9},
            {"mass": "7/262", "mass_float": 0.026717557251908396},
            "bulk mass(n=9, eps=1/2) = 7/262 = 0.026718\n",
        ),
        (
            ["vk", "--alpha", "3,2", "--a", "1/2,1/4", "--b", "1/4", "--m", "50"],
            {"kind": "vk", "alpha": "3,2", "a": "1/2,1/4", "b": "1/4", "m": 50},
            {
                "estimate_ratio": "9/256",
                "exact_ratio": "425/6402",
                "lambda": "50,50",
                "rel_err": -0.47042279411764704,
            },
            "limit ratio s_alpha(a/-b) = 9/256\nexact ratio at lambda=(50,50): 425/6402\n"
            "relative error = -4.704e-01\n",
        ),
    ],
)
def test_asym_output_is_pinned(capsys, argv, inputs, results, text):
    # every kind reports all eight asym inputs, whichever of them it reads
    record = {
        "agree": None,
        "command": "asym",
        "inputs": {**ASYM_DEFAULT_INPUTS, **inputs},
        "results": results,
    }
    assert len(record["inputs"]) == 8
    assert run(capsys, ["asym", *argv]) == (0, text, "")
    expected = json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert run(capsys, ["asym", *argv, "--json"]) == (0, expected, "")


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("tn", ["--n", "10"]),
        ("shift", ["--n", "10", "--m", "2"]),
        ("prob", ["--n", "10", "--alpha", "2,1"]),
        ("vk", ["--alpha", "2", "--a", "1/2,1/2", "--m", "3"]),
        ("mass", ["--n", "9"]),
    ],
)
def test_each_asym_kind_offers_exactly_the_options_its_handler_reads(kind, argv):
    handler, reads = cli._ASYM[kind]
    actions = cli._build_parser().subcommands["asym", kind]._actions
    offered = {text for action in actions for text in action.option_strings}
    assert offered == {"-h", "--help", "--json", *(f"--{name}" for name in reads)}
    args = cli._parse(["asym", kind, *argv])
    read = set()

    class Spy:
        def __getattr__(self, name):
            read.add(name)
            return getattr(args, name)

    handler(Spy())
    assert read == set(reads)


def test_json_round_trips_bit_identically(capsys):
    for argv in [
        ["skew", "--outer", "2,2,1", "--inner", "1"],
        ["contain", "--n", "6", "--alpha", "2,2"],
        ["table", "--max-k", "2", "--n-max", "5"],
        ["asym", "tn", "--n", "20"],
        ["asym", "mass", "--n", "16", "--eps", "1/2"],
    ]:
        code, record, raw = run_json(capsys, argv)
        assert code == 0
        assert cli.render_json(record) + "\n" == raw


ANY_CHAR = st.characters(exclude_categories=())  # surrogates and control characters too
JSON_LEAVES = (
    st.text(ANY_CHAR)
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.booleans()
    | st.none()
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.2e-308, 1e300, -1e300])
)


@settings(max_examples=300)
@given(
    st.recursive(
        JSON_LEAVES,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(ANY_CHAR, max_size=4), children, max_size=4),
        max_leaves=20,
    )
)
def test_render_json_is_json_dumps(value):
    assert cli.render_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_big_integers_are_strings(capsys):
    code, record, _ = run_json(
        capsys, ["contain", "--n", "40", "--alpha", "1", "--method", "expansion"]
    )
    assert code == 0
    assert isinstance(record["results"]["N"], str)
    assert record["results"]["N"] == str(involutions(40))


def test_tn_beyond_the_int_str_digit_limit(capsys):
    # t(20000) has about 38,700 digits, far past str()'s 4300-digit default
    cached = len(sequences._t)
    try:
        code, record, _ = run_json(capsys, ["asym", "tn", "--n", "20000"])
        assert code == 0
        t = involutions(20000)
        digits = record["results"]["exact"]
        d = len(digits)
        assert 10 ** (d - 1) <= t < 10**d
        assert digits[-50:] == str(t % 10**50)
        code, out, _ = run(capsys, ["asym", "tn", "--n", "20000"])
        assert code == 0
        assert f"t(20000) exact = {digits}" in out
    finally:
        del sequences._t[cached:]  # release the ~170 MB of memoized values


@pytest.mark.parametrize(
    "argv, message",
    [
        (["asym", "tn", "--n", "5000", "--order", "3"], "order must be 0, 1 or 2"),
        (["asym", "shift", "--n", "5000", "--m", "-1"], "need 0 <= j <= n"),
    ],
)
def test_rejected_asym_arguments_build_no_table_of_t(capsys, argv, message):
    # the estimate checks n, --order and --m before any t_k is computed
    cached = len(sequences._t)
    assert cached <= 5000
    try:
        assert run(capsys, argv) == (7, "", f"domain error: {message}\n")
        assert len(sequences._t) == cached
    finally:
        del sequences._t[cached:]


def test_fmt_fraction_beyond_the_int_str_digit_limit():
    big = 10**5000
    text = cli._fmt_fraction(Fraction(big + 1, 3))
    numerator, denominator = text.split("/")
    assert denominator == "3"
    assert len(numerator) == 5001
    assert numerator[0] == "1" and numerator[-4:] == "0001"
    assert cli._fmt_int(-big) == "-1" + "0" * 5000
    assert cli._fmt_int(12345) == "12345"


def test_decimal_digits_match_str_past_the_digit_limit():
    # the subquadratic fallback against str with the limit lifted
    values = [0, 1, -1, 12345, 3**125_000, -(7**71_000)]  # the last two about 60k digits
    for k in (300, 4300, 4301, 60_000):
        values += [10**k, 10**k - 1, -(10**k), 1 - 10**k]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(x) for x in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [cli._decimal_digits(x) for x in values] == expected
    assert [cli._fmt_int(x) for x in values] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["asym", "mass", "--n", "30", "--eps", "1e20000000"],
        ["asym", "mass", "--n", "30", "--eps", "1e-20000000"],
        ["asym", "mass", "--n", "30", "--eps", " 5E+20000000"],
        ["asym", "vk", "--alpha", "1", "--a", "1/2,5e-20000000", "--m", "3"],
        ["asym", "vk", "--alpha", "1", "--a", "1", "--b", "1e20000000", "--m", "3"],
    ],
)
def test_a_decimal_exponent_past_the_digit_limit_exits_2_at_once(capsys, argv):
    # Fraction would expand 10**20000000, which takes seconds
    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse rational from ") and err.count("\n") == 1


def test_a_decimal_exponent_at_the_digit_limit_still_parses(capsys):
    limit = sys.get_int_max_str_digits()
    code, record, _ = run_json(capsys, ["asym", "mass", "--n", "30", "--eps", f"1e{limit}"])
    assert code == 0 and record["results"]["mass"] == "1"
    code, record, _ = run_json(capsys, ["asym", "mass", "--n", "30", "--eps", f"1e-{limit}"])
    assert code == 0 and record["results"]["mass"] == "0"
    code, out, err = run(capsys, ["asym", "mass", "--n", "30", "--eps", f"1e{limit + 1}"])
    assert (code, out) == (2, "")
    assert cli._parse_rational("3/2") == Fraction(3, 2)
    assert cli._parse_rational(" -1.5E-1 ") == Fraction(-3, 20)


def test_integrality_violation_exit_4(capsys, monkeypatch):
    def broken(n, alpha):
        raise IntegralityError("forced failure")

    monkeypatch.setattr(containment, "N_direct", broken)
    code, out, err = run(capsys, ["contain", "--n", "4", "--alpha", "2,1"])
    assert code == 4
    assert "integrality" in err


@pytest.mark.parametrize(
    "module, name, value, argv",
    [
        pytest.param(
            characters,
            "factorial",
            lambda n: factorial(n) + 1,
            ["skew", "--outer", "3,1", "--method", "char"],
            id="frobenius",
        ),
        pytest.param(
            skew_count,
            "factorial",
            lambda n: factorial(n) + 1,
            ["skew", "--outer", "3,1", "--method", "det"],
            id="determinant",
        ),
        pytest.param(
            asymptotics,
            "comb",
            lambda n, k: comb(n, k) + 1,
            ["asym", "mass", "--n", "30"],
            id="bulk-mass",
        ),
        pytest.param(
            containment,
            "t_shift_coeff",
            lambda j, alpha: Fraction(1, 7) if j == 0 else Fraction(0),
            ["contain", "--n", "6", "--alpha", "2,1", "--method", "expansion"],
            id="expansion",
        ),
        pytest.param(
            containment,
            "CLOSED_FORMS",
            {(1,): (3, {0: 1})},
            ["table", "--max-k", "1", "--n-max", "2"],
            id="closed-form",
        ),
    ],
)
def test_every_failed_exact_division_exits_4(capsys, monkeypatch, module, name, value, argv):
    # each case makes one division that must cancel come out inexact
    characters.clear_character_cache()
    monkeypatch.setattr(module, name, value)
    try:
        code, out, err = run(capsys, argv)
    finally:
        characters.clear_character_cache()
    assert code == cli.EXIT_INTEGRALITY == 4
    assert out == ""
    assert err.startswith("internal integrality violation:"), err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["skew", "--outer", "3,1", "--json"], id="flushed-at-exit"),
        # about 32 KB, past the stream's buffer, so print itself writes
        pytest.param(["table", "--json"], id="written-by-print"),
    ],
)
def test_a_closed_stdout_exits_141_quietly(argv):
    src = os.path.dirname(os.path.dirname(skewtab.__file__))
    child = subprocess.Popen(
        [sys.executable, "-m", "skewtab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert child.returncode == cli.EXIT_CLOSED_OUTPUT == 141
    assert err == b""


def test_internal_error_exit_5(capsys, monkeypatch):
    # exit 1 means only that routes disagreed; a crash has its own code
    def broken(n, alpha):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(containment, "N_direct", broken)
    code, out, err = run(capsys, ["contain", "--n", "4", "--alpha", "2,1"])
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "internal error: RuntimeError: forced failure\n"


def test_skew_routes_are_looked_up_at_call_time(capsys, monkeypatch):
    # a route rebound on its module (as a tracer does) is the one the CLI runs
    calls = []

    def recorded(shape):
        calls.append(shape)
        return 7

    monkeypatch.setattr(skew_count, "skew_syt_char", recorded)
    code, record, _ = run_json(capsys, ["skew", "--outer", "3,2,1", "--method", "char"])
    assert code == 0
    assert record["results"]["count"] == "7"
    assert [(s.outer, s.inner) for s in calls] == [((3, 2, 1), ())]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["skew", "--outer", "3,2,1", "--inner", "1"],
            "f[3,2,1 / 1]\n  brute = 16\n  det   = 16\n  char  = 16\n  agree = True\n",
        ),
        (["skew", "--outer", "3,2,1", "--inner", "1", "--method", "brute"], "f[3,2,1 / 1]\n  brute = 16\n"),
        (["skew", "--outer", "3,2,1", "--inner", "1", "--method", "det"], "f[3,2,1 / 1]\n  det   = 16\n"),
        (["skew", "--outer", "3,2,1", "--inner", "1", "--method", "char"], "f[3,2,1 / 1]\n  char  = 16\n"),
        (
            ["contain", "--n", "4", "--alpha", "2,1"],
            "N(4; 2,1)\n  direct    = 3\n  expansion = 3\n  binomial  = 3\n"
            "  P         = 3/10\n  agree     = True\n",
        ),
        (
            ["contain", "--n", "4", "--alpha", "2,1", "--method", "direct"],
            "N(4; 2,1)\n  direct    = 3\n  P         = 3/10\n",
        ),
        (
            ["contain", "--n", "4", "--alpha", "2,1", "--method", "expansion"],
            "N(4; 2,1)\n  expansion = 3\n  P         = 3/10\n",
        ),
        (
            ["contain", "--n", "4", "--alpha", "2,1", "--method", "binomial"],
            "N(4; 2,1)\n  binomial  = 3\n  P         = 3/10\n",
        ),
    ],
)
def test_text_output_is_pinned(capsys, argv, expected):
    assert run(capsys, argv) == (0, expected, "")


def test_argparse_rejects_unknown_method(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["contain", "--n", "4", "--alpha", "2,1", "--method", "guess"])
    assert exc.value.code == 2


def test_skew_char_on_1500_cells(capsys):
    code, record, _ = run_json(capsys, ["skew", "--outer", "1500", "--method", "char"])
    assert code == 0
    assert record["results"]["count"] == "1"


def run_or_exit(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_prints_what_fresh_parsers_print(capsys):
    sequence = [
        ["skew", "--outer", "2,2,1", "--method", "guess"],
        ["skew", "--outer", "2,2,1", "--inner", "1"],
        ["contain", "--n", "4", "--alpha", "2,1", "--json"],
        ["skew", "--outer", "3,2,1", "--json"],
        ["asym", "mass", "--n", "12", "--json"],
    ]
    cli._build_parser.cache_clear()
    reused = [run_or_exit(capsys, argv) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(run_or_exit(capsys, argv))
    assert reused == fresh
    assert reused[0][0] == 2 and "invalid choice" in reused[0][2]
    assert [code for code, _, _ in reused[1:]] == [0, 0, 0, 0]


def test_parser_defaults_do_not_leak_between_calls(capsys):
    _, record, _ = run_json(
        capsys, ["skew", "--outer", "3,2,1", "--inner", "1", "--method", "det"]
    )
    assert record["inputs"]["inner"] == "1"
    _, record, _ = run_json(capsys, ["skew", "--outer", "3,2,1"])
    assert record["inputs"]["inner"] == ""
    assert record["inputs"]["method"] == "all"
    assert record["results"]["count"] == "16"


def parse_then_run(argv):
    """The parse path ``main`` replaces: the full parser, then the subcommand."""
    args = cli._build_parser().parse_args(argv)
    return args.run(args)


def outcome(capsys, call, argv):
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["skew", "--outer", "3,2,1", "--inner", "1"],
        ["skew", "--outer", "4,2", "--method", "det", "--json"],
        ["contain", "--n", "6", "--alpha", "2,1", "--json"],
        ["table", "--max-k", "2", "--n-max", "3"],
        ["asym", "tn", "--n", "20", "--json"],
        ["asym", "shift", "--n", "30", "--m", "2"],
        ["asym", "prob", "--n", "12", "--alpha", "2,1"],
        ["asym", "vk", "--alpha", "2", "--a", "1/2,1/2", "--b", "", "--m", "10", "--json"],
        ["asym", "mass", "--n", "12"],
        ["-h"],
        ["--help"],
        ["skew", "-h"],
        ["asym", "--help"],
        ["skew", "--outer", "3", "-h"],
        [],
        ["frobnicate"],
        ["ske", "--outer", "3"],
        ["skew"],
        ["asym"],
        ["skew", "--outer", "3", "junk"],
        ["skew", "--outer", "3", "--junk"],
        ["asym", "tn", "extra", "--json"],
        ["skew", "--out", "3,2"],
        ["skew", "--out=3,2", "--in=1", "--me=det"],
        ["skew", "--outer=3,2", "--json"],
        ["contain", "--outer=3,2"],
        ["contain", "--n", "x", "--alpha", "1"],
        ["skew", "--outer", "3", "--method", "guess"],
        ["--json", "skew", "--outer", "3"],
        ["-h", "skew"],
        ["skew", "--", "--outer", "3"],
        ["skew", "--outer", "3", "--", "x"],
        ["asym", "--", "tn"],
        ["--", "skew", "--outer", "3"],
        ["asym", "tn", "--eps", "1"],
        ["asym", "mass", "--order", "1"],
        ["asym", "vk", "--help"],
        ["asym", "--n", "5", "tn"],
    ],
)
def test_main_parses_as_the_full_parser_does(capsys, argv):
    assert outcome(capsys, cli.main, argv) == outcome(capsys, parse_then_run, argv)


def test_clearing_the_parser_cache_rebuilds_the_subcommand_parsers(capsys, monkeypatch):
    stale = cli._build_parser().subcommands
    assert set(stale) == {("skew",), ("contain",), ("table",), *(("asym", kind) for kind in cli._ASYM)}
    assert len(stale) == 8

    def refuse(*args, **kwargs):
        raise AssertionError("a parser from a cleared build was used")

    for command in stale.values():
        monkeypatch.setattr(command, "parse_known_args", refuse)
    cli._build_parser.cache_clear()
    fresh = cli._build_parser().subcommands
    assert all(fresh[name] is not stale[name] for name in stale)
    assert run(capsys, ["skew", "--outer", "3,2,1", "--method", "det"]) == (
        0,
        "f[3,2,1 / ()]\n  det   = 16\n",
        "",
    )


def test_import_loads_no_dataclasses_inspect_or_typing():
    # every skewtab process pays for what the import pulls in; these modules
    # (about 10 ms of a cold start) serve nothing at runtime
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "linecache", "copy")
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import skewtab, skewtab.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(skewtab.__file__))
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, src],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "skewtab.cli" in added
    assert not added.intersection(heavy), sorted(added.intersection(heavy))
