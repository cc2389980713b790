"""The CLI's exit-code contract, checked over drawn argv for all four subcommands.

Every argv ends in a documented exit code and never in 5 (an internal
error).  A nonzero exit other than 1 leaves stdout empty and says why on
stderr; exit 1 (routes disagreed) comes only from a cross-check, that is
``--method all`` or ``table``, and exit 3 (invalid skew shape) only from
``skew``, the one subcommand that takes a skew shape.  A negative size whose fellow arguments are
well-formed is a domain error, exit 7.  Every ``--json`` stdout parses
under a strict JSON parser, with one known exception: ``asym tn`` and
``asym shift`` write ``"estimate": Infinity`` past float range.

An ``asym`` kind takes only the options it reads: the drawn ``asym`` argv
give only those, and one option more exits 2 as an unrecognized argument,
with empty stdout and the option named on stderr.

Costs stay small: partitions have at most 12 cells and n is at most 400,
less where a route walks every partition of n (``contain`` under
``direct`` or ``all``, ``asym mass``) or fills a whole table (``table``).
"""

import contextlib
import io
import json

from hypothesis import example, given, settings, strategies as st

from skewtab import cli
from skewtab.partitions import format_partition, partitions_of

DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 6, 7, 141}  # 5 is documented too, as a bug

GOOD_PARTITIONS = [format_partition(p) for k in range(13) for p in partitions_of(k)]
BAD_PARTITIONS = ["1,2", "0", "2,0", "-1", "x", "2,,1", "1.5", "3;1"]
PARTITION = st.one_of(
    st.sampled_from(GOOD_PARTITIONS).map(lambda text: (text, True)),
    st.sampled_from(GOOD_PARTITIONS).map(lambda text: (text, True)),
    st.sampled_from(BAD_PARTITIONS).map(lambda text: (text, False)),
)
EPS = st.sampled_from(
    [("1/2", True), ("1", True), ("3/2", True), ("5/2", True), ("0", True), ("-1/2", True)]
    + [("x", False), ("1/0", False), ("", False)]
)
# (--a, --b): total 1, weakly decreasing and nonnegative, or not
GOOD_FREQUENCIES = [("1/2,1/2", ""), ("1", ""), ("", "1"), ("1/2,1/4", "1/4"), ("1/3", "1/3,1/3")]
BAD_FREQUENCIES = [("1/2", ""), ("1/4,1/2", "1/4"), ("-1/2,3/2", ""), ("x", ""), ("2", "")]
FREQUENCIES = st.one_of(
    st.sampled_from(GOOD_FREQUENCIES).map(lambda ab: (*ab, True)),
    st.sampled_from(GOOD_FREQUENCIES).map(lambda ab: (*ab, True)),
    st.sampled_from(BAD_FREQUENCIES).map(lambda ab: (*ab, False)),
)
JSON_FLAG = st.sampled_from([[], ["--json"]])
SIZE_UP_TO_400 = st.one_of(st.integers(-3, 400), st.sampled_from([295, 296, 400]))


def option(name, text):
    return [f"{name}={text}"]  # one token, so a value starting with "-" stays a value


@st.composite
def skew_argv(draw):
    (outer, ok_outer), (inner, ok_inner) = draw(PARTITION), draw(PARTITION)
    method = draw(st.sampled_from([None, "all", *cli.skew_count.routes(), "guess"]))
    groups = [option("--outer", outer), option("--inner", inner)]
    if method is not None:
        groups.append(["--method", method])
    argv = ["skew", *sum(draw(st.permutations(groups)), []), *draw(JSON_FLAG)]
    return argv, [], ok_outer and ok_inner and method != "guess"


@st.composite
def contain_argv(draw):
    alpha, ok_alpha = draw(PARTITION)
    method = draw(st.sampled_from([None, "all", *cli.containment.routes(), "guess"]))
    walks_partitions_of_n = method in (None, "all", "direct", "guess")
    n = draw(st.integers(-3, 24 if walks_partitions_of_n else 400))
    groups = [["--n", str(n)], option("--alpha", alpha)]
    if method is not None:
        groups.append(["--method", method])
    argv = ["contain", *sum(draw(st.permutations(groups)), []), *draw(JSON_FLAG)]
    return argv, [n], ok_alpha and method != "guess"


@st.composite
def table_argv(draw):
    max_k, n_max = draw(st.integers(-2, 6)), draw(st.integers(-2, 30))
    groups = [["--max-k", str(max_k)], ["--n-max", str(n_max)]]
    argv = ["table", *sum(draw(st.permutations(groups)), []), *draw(JSON_FLAG)]
    return argv, [max_k, n_max], True


@st.composite
def asym_argv(draw):
    """An argv for one kind, giving only options that kind reads."""
    kind = draw(st.sampled_from(sorted(cli._ASYM)))
    reads = {"frequencies" if name in ("a", "b") else name for name in cli._ASYM[kind][1]}
    # t_296 is past float range: tn and shift write Infinity from there on
    n = draw(st.integers(-3, 40) if kind == "mass" else SIZE_UP_TO_400)
    m = draw(st.integers(-3, n + 3) if kind == "shift" else SIZE_UP_TO_400)
    order = draw(st.integers(-1, 3))
    alpha, ok_alpha = draw(PARTITION)
    eps, ok_eps = draw(EPS)
    a, b, ok_freq = draw(FREQUENCIES)
    # name: (tokens, value, well-formed) as given, and (value, well-formed) as defaulted
    given_as = {
        "n": (["--n", str(n)], n, True),
        "m": (["--m", str(m)], m, True),
        "order": (["--order", str(order)], order, True),
        "alpha": (option("--alpha", alpha), alpha, ok_alpha),
        "eps": (option("--eps", eps), eps, ok_eps),
        "frequencies": (option("--a", a) + option("--b", b), (a, b), ok_freq),
    }
    defaults = {
        "n": (50, True),
        "m": (0, True),
        "order": (2, True),
        "alpha": ("", True),
        "eps": ("1/2", True),
        "frequencies": (("", ""), False),  # the TVK total of no frequencies is 0
    }
    # each option the kind reads is given with odds 3 in 4, in any order;
    # mass always gets its --n, since the default 50 walks too many partitions
    names = [
        name
        for name in draw(st.permutations(sorted(given_as)))
        if name in reads and (draw(st.integers(0, 3)) < 3 or (kind, name) == ("mass", "n"))
    ]
    argv = ["asym", kind, *sum((given_as[name][0] for name in names), []), *draw(JSON_FLAG)]
    value = {name: given_as[name][1:] if name in names else defaults[name] for name in given_as}
    sizes = {"shift": ["n", "m"], "vk": ["m"]}.get(kind, ["n"])
    texts = {"prob": ["alpha"], "vk": ["alpha", "frequencies"], "mass": ["eps"]}.get(kind, [])
    return argv, [value[name][0] for name in sizes], all(value[name][1] for name in texts)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def nonfinite_keys(text):
    """Parse ``text`` as strict JSON, but list the paths of NaN and +-Infinity
    instead of refusing them."""
    found = {}

    def mark(constant):
        marker = object()
        found[id(marker)] = constant
        return marker

    def walk(value, path):
        if isinstance(value, dict):
            return [hit for key, item in value.items() for hit in walk(item, path + (key,))]
        if isinstance(value, list):
            return [hit for i, item in enumerate(value) for hit in walk(item, path + (i,))]
        return [(path, found[id(value)])] if id(value) in found else []

    return walk(json.loads(text, parse_constant=mark), ())


@settings(max_examples=500, deadline=None)
@given(st.one_of(skew_argv(), contain_argv(), table_argv(), asym_argv()))
@example((["asym", "tn", "--n", "296", "--json"], [296], True))
@example((["asym", "shift", "--n", "400", "--m", "3", "--json"], [400, 3], True))
@example((["asym", "vk", "--alpha=6", "--a=1/2,1/2", "--m", "5", "--json"], [5], True))
@example((["contain", "--n", "-1", "--alpha=2,1", "--method", "binomial"], [-1], True))
def test_every_argv_ends_in_its_documented_exit(drawn):
    argv, sizes, well_formed = drawn
    code, out, err = run(argv)
    assert code in DOCUMENTED_EXITS, (argv, code, err)
    if code == 1:
        assert argv[0] == "table" or "all" in argv or "--method" not in argv, argv
    if code == 3:
        assert argv[0] == "skew", argv  # only skew takes a skew shape from the user
    elif code != 0:
        assert out == "", (argv, code)
        assert err, (argv, code)
    else:
        assert err == "", argv
    if well_formed and any(size < 0 for size in sizes):
        assert code == 7 and err.startswith("domain error: "), (argv, code, err)
    if "--json" in argv and code in (0, 1):
        nonfinite = nonfinite_keys(out)
        if argv[:2] in (["asym", "tn"], ["asym", "shift"]):
            assert nonfinite in ([], [(("results", "estimate"), "Infinity")]), argv
        else:
            assert nonfinite == [], argv


@st.composite
def asym_argv_with_an_unread_option(draw):
    """A valid-looking ``asym`` argv plus one option its kind does not read.

    An unread option that abbreviates one the kind reads is left out:
    argparse reads ``asym prob --a 1`` as ``--alpha 1``.
    """
    argv, _, _ = draw(asym_argv())
    reads = cli._ASYM[argv[1]][1]
    unread = [
        name
        for name in cli._ASYM_OPTIONS
        if not any(read.startswith(name) for read in reads)
    ]
    name = draw(st.sampled_from(unread))
    value = draw(st.sampled_from(["1", "0", "-3", "1/2", "2,1", "x", ""]))
    at = draw(st.sampled_from([2, len(argv)]))
    return argv[:at] + option(f"--{name}", value) + argv[at:], name


@settings(max_examples=200, deadline=None)
@given(asym_argv_with_an_unread_option())
@example((["asym", "tn", "--n", "10", "--m=-3", "--json"], "m"))
def test_an_option_the_asym_kind_does_not_read_exits_2(drawn):
    argv, name = drawn
    code, out, err = run(argv)
    assert (code, out) == (2, ""), (argv, code)
    assert "unrecognized arguments:" in err and f"--{name}=" in err, (argv, err)
