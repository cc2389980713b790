"""Command-line entry point: compute counts, reproduce the closed-form
table, run cross-checks, and emit asymptotic comparison reports.

Subcommands: ``skew``, ``contain``, ``table``, ``asym``.  Every command
supports ``--json``, emitting a single JSON object per invocation in which
big integers are decimal strings (never floats) and rationals are "p/q"
strings in lowest terms with the sign on the numerator.  ``_report`` is the
one writer of that record ``{command, inputs, results, agree}`` and of the
text lines printed instead of it.  The record's text is
``json.dumps(record, indent=2, sort_keys=True)`` byte for byte, written by
``render_json`` without json's pure-Python encoder; each number is turned
into digits once, and the text lines reuse those digits.

Parsing: when argv starts with a command, ``skew`` or ``asym tn``, ``main``
parses the rest with that command's parser alone, which is what the full
parser would hand it.  Any other argv, and any argument the command leaves
unrecognized, goes through the full parser, so usage, help and error
messages are argparse's own.

The skew and containment routes, and so the ``--method`` choices, are read
from ``skew_count.routes()`` and ``containment.routes()``.  The ``asym``
kinds are the keys of ``_ASYM``: ``tn`` and ``shift`` (t_n and t_{n-m} by
the one Moser-Wyman estimator, ``mw_log_involutions_estimate``), ``prob``
(P(n; alpha)), ``vk`` (two-row limit ratio) and ``mass`` (bulk mass).
Each kind comes right after ``asym`` and accepts only the options its
``_ASYM`` entry names, plus ``--json``; any other option exits 2 as an
unrecognized argument.  Every ``asym`` record still echoes all the
options of ``_ASYM_OPTIONS``, at their defaults where the kind reads none.

Exit codes: 0 ok (all requested agreement flags true), 1 disagreement,
2 parse error (text that does not parse, a non-partition, or frequencies
that ``LimitSpec`` or the TVK total refuses), 3 invalid skew shape,
4 internal integrality violation, 5 any other internal error, 6 capacity
limit (a route asked for an input past its documented cap, such as the
brute route above 25 cells; stdout stays empty), 7 domain error (a
well-formed number outside its function's domain, such as
``contain --n -1``, ``asym mass --eps 0``, or an ``asym vk --alpha`` that
does not fit in ``(m, m)``, as in ``asym vk --alpha 6 --a 1/2,1/2 --m 5``
or ``asym vk --alpha 2,2,1 --a 1/2,1/2 --m 5``; ``domain error: ...`` on
stderr, stdout stays empty), 141 (128 + SIGPIPE) the reader closed stdout
before the output was written, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import asymptotics, containment, sequences, skew_count
from .exact import DomainError, IntegralityError
from .partitions import (
    InvalidSkewShapeError,
    SkewShape,
    contains,
    format_partition,
    parse_partition,
    partitions_of,
)
from .skew_count import CapacityError

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_PARSE = 2
EXIT_INVALID_SHAPE = 3
EXIT_INTEGRALITY = 4
EXIT_INTERNAL = 5
EXIT_CAPACITY = 6
EXIT_DOMAIN = 7
EXIT_CLOSED_OUTPUT = 141


def _fmt_int(x: int) -> str:
    """Decimal digits of x at any size.

    ``str`` refuses ints beyond the interpreter's digit limit (4300 by
    default); ``_decimal_digits`` converts them exactly without that limit.
    """
    try:
        return str(x)
    except ValueError:
        return _decimal_digits(x)


def _decimal_digits(x: int) -> str:
    """Decimal digits of x in subquadratic time, with no digit limit.

    ``str(decimal.Decimal(x))`` is quadratic in the length of x.  Instead x
    is split by powers of 2 into words that ``Decimal`` converts cheaply,
    and the halves are joined as ``lo + hi * 2**w`` in a context wide
    enough to keep every step exact, where large products are fast.
    ``str`` runs once, on the result.
    """
    powers: dict[int, decimal.Decimal] = {}

    def join(n: int, width: int) -> decimal.Decimal:  # 0 <= n < 2**width
        if width <= 1024:
            return decimal.Decimal(n)
        half = width >> 1
        hi = n >> half
        if half not in powers:
            powers[half] = decimal.Decimal(2) ** half
        return join(n - (hi << half), half) + join(hi, width - half) * powers[half]

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(join(abs(x), abs(x).bit_length()))
    return "-" + digits if x < 0 else digits


def _fmt_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return _fmt_int(x.numerator)
    return f"{_fmt_int(x.numerator)}/{_fmt_int(x.denominator)}"


def render_json(record: dict) -> str:
    """``json.dumps(record, indent=2, sort_keys=True)``, byte for byte.

    Re-rendering a parsed record is bit-identical.  ``json.dumps`` falls
    back to its pure-Python encoder whenever ``indent`` is set;
    ``_json_text`` writes the same text with less work per value.
    """
    return _json_text(record, "\n")


def _json_text(value, newline: str) -> str:
    """``value`` laid out as ``render_json`` does, at the indent ``newline`` ends with.

    Strings go through json's own ASCII escaper and floats through
    ``float.__repr__``, with json's ``NaN`` and ``Infinity`` spellings.
    Dict keys must be strings.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _parse_rational(text: str) -> Fraction:
    """A Fraction from text such as 3/2, -0.25 or 1e-3.

    Fraction expands a decimal exponent into a power of 10 without the
    interpreter's limit on integer digits, so 1e20000000 would run for
    seconds: an exponent beyond that limit is refused, as a mantissa of
    that many digits is.
    """
    literal = text.strip()
    try:
        _, mark, exponent = literal.lower().partition("e")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if mark and limit and abs(int(exponent)) > limit:
            raise ValueError
        return Fraction(literal)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse rational from {text!r}") from None


def _parse_rational_list(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_rational(item) for item in text.split(","))


def _report(args, inputs: dict, results: dict, agree, lines: list[str]) -> int:
    """Print the record under ``--json``, else the lines; only ``agree is False`` exits 1."""
    record = {"command": args.cmd, "inputs": inputs, "results": results, "agree": agree}
    print(render_json(record) if args.json else "\n".join(lines))
    return EXIT_DISAGREE if agree is False else EXIT_OK


def _cross_check(args, routes: dict, route_args: tuple, inputs: dict, title: str, summary) -> int:
    """Run the wanted routes, compare them, and emit the record or text lines.

    ``summary(value, text)`` turns the first route's value and its rendered
    digits into the record's result fields and the text rows printed after
    the routes' own rows.  Each distinct value is rendered once.  Labels are
    padded to the longest route name, whichever routes ran.
    """
    wanted = tuple(routes) if args.method == "all" else (args.method,)
    values = {name: routes[name](*route_args) for name in wanted}
    texts = {value: _fmt_int(value) for value in set(values.values())}
    agree = len(texts) == 1
    by_method = {name: texts[value] for name, value in values.items()}
    first = next(iter(values))
    fields, rows = summary(values[first], by_method[first])
    width = max(map(len, routes))
    rows = [*by_method.items(), *rows]
    if args.method == "all":
        rows.append(("agree", agree))
    lines = [title] + [f"  {label:{width}s} = {text}" for label, text in rows]
    inputs = {**inputs, "method": args.method}
    return _report(args, inputs, {**fields, "by_method": by_method}, agree, lines)


def _cmd_skew(args) -> int:
    shape = SkewShape(parse_partition(args.outer), parse_partition(args.inner))
    return _cross_check(
        args,
        skew_count.routes(),
        (shape,),
        {"outer": format_partition(shape.outer), "inner": format_partition(shape.inner)},
        f"f[{args.outer or '()'} / {args.inner or '()'}]",
        lambda count, text: ({"count": text}, []),
    )


def _cmd_contain(args) -> int:
    alpha = parse_partition(args.alpha)
    n = args.n

    def summary(count: int, text: str) -> tuple[dict, list]:
        prob = _fmt_fraction(Fraction(count, sequences.involutions(n)))
        return {"N": text, "P": prob}, [("P", prob)]

    return _cross_check(
        args,
        containment.routes(),
        (n, alpha),
        {"n": n, "alpha": format_partition(alpha)},
        f"N({n}; {args.alpha or '()'})",
        summary,
    )


def _cmd_table(args) -> int:
    if args.max_k < 1:
        raise DomainError("--max-k must be at least 1")
    if args.n_max < 0:
        raise DomainError("--n-max must be nonnegative")
    rows = []
    all_match = True
    for k in range(1, args.max_k + 1):
        for alpha in partitions_of(k):
            has_form = alpha in containment.CLOSED_FORMS
            for n in range(args.n_max + 1):
                value = containment.N_expansion(n, alpha)
                row = {
                    "alpha": format_partition(alpha),
                    "n": n,
                    "expansion": _fmt_int(value),
                    "closed_form": None,
                    "match": None,
                }
                if has_form:
                    golden = containment.N_closed_form(n, alpha)
                    row["closed_form"] = _fmt_int(golden)
                    row["match"] = golden == value
                    all_match = all_match and row["match"]
                rows.append(row)
    lines = [f"{'alpha':12s} {'n':>3s} {'expansion':>14s} {'closed form':>14s} match"]
    for row in rows:
        golden = row["closed_form"] if row["closed_form"] is not None else "-"
        match = {True: "yes", False: "NO", None: "-"}[row["match"]]
        lines.append(
            f"{row['alpha']:12s} {row['n']:3d} {row['expansion']:>14s} "
            f"{golden:>14s} {match}"
        )
    lines.append(f"all match: {all_match}")
    inputs = {"max_k": args.max_k, "n_max": args.n_max}
    return _report(args, inputs, {"rows": rows}, all_match, lines)


def _asym_t(index: int, log_est: float, label: str) -> tuple[dict, list[str]]:
    """Compare a log estimate of t_index with the exact t_index.

    The log estimate comes in already computed, so arguments that its estimator
    rejects never build the table of t up to ``index``.
    """
    estimate = asymptotics.exp_estimate(log_est)
    exact = sequences.involutions(index)
    rel = asymptotics.relative_error(log_est, exact)
    results = {"estimate": estimate, "exact": _fmt_int(exact), "rel_err": rel}
    lines = [
        f"{label} = {estimate:.6e}",
        f"t({index}) exact = {results['exact']}",
        f"relative error = {rel:.3e}",
    ]
    return results, lines


def _asym_prob(args) -> tuple[dict, list[str]]:
    alpha = parse_partition(args.alpha)
    estimate = asymptotics.containment_probability_estimate(args.n, alpha)
    exact = containment.containment_probability(args.n, alpha)
    residual = float(exact) - estimate
    results = {"estimate": estimate, "exact": _fmt_fraction(exact), "residual": residual}
    lines = [
        f"P({args.n}; {args.alpha}) estimate = {estimate:.10f}",
        f"P({args.n}; {args.alpha}) exact = {results['exact']} = {float(exact):.10f}",
        f"residual = {residual:.3e}",
    ]
    return results, lines


def _asym_vk(args) -> tuple[dict, list[str]]:
    alpha = parse_partition(args.alpha)
    spec = asymptotics.LimitSpec(_parse_rational_list(args.a), _parse_rational_list(args.b))
    if spec.frequency_sum() != 1:
        raise ValueError("TVK frequencies must sum to exactly 1")
    if args.m < 1:
        raise DomainError("kind=vk needs --m >= 1 (the two-row size)")
    lam = (args.m, args.m)
    if not contains(lam, alpha):
        raise DomainError(f"kind=vk needs --alpha to fit in (--m, --m) = ({args.m},{args.m})")
    estimate = asymptotics.super_schur_value(alpha, spec.a, spec.b)
    f_lam = skew_count.skew_syt_det((lam, ()))
    f_skew = skew_count.skew_syt_det((lam, alpha))  # a valid pair: contains() held
    exact_ratio = Fraction(f_skew, f_lam)
    rel = float(estimate / exact_ratio - 1)
    results = {
        "estimate_ratio": _fmt_fraction(estimate),
        "exact_ratio": _fmt_fraction(exact_ratio),
        "lambda": format_partition(lam),
        "rel_err": rel,
    }
    lines = [
        f"limit ratio s_alpha(a/-b) = {results['estimate_ratio']}",
        f"exact ratio at lambda=({args.m},{args.m}): {results['exact_ratio']}",
        f"relative error = {rel:.3e}",
    ]
    return results, lines


def _asym_mass(args) -> tuple[dict, list[str]]:
    eps = _parse_rational(args.eps)
    mass = asymptotics.bulk_mass(args.n, eps)
    results = {"mass": _fmt_fraction(mass), "mass_float": float(mass)}
    lines = [f"bulk mass(n={args.n}, eps={args.eps}) = {results['mass']} = {float(mass):.6f}"]
    return results, lines


def _asym_tn(args) -> tuple[dict, list[str]]:
    log_est = asymptotics.mw_log_involutions_estimate(args.n, args.order)
    return _asym_t(args.n, log_est, f"t({args.n}) estimate (order {args.order})")


def _asym_shift(args) -> tuple[dict, list[str]]:
    log_est = asymptotics.mw_log_involutions_estimate(args.n, 2, args.m)
    return _asym_t(args.n - args.m, log_est, f"t({args.n}-{args.m}) estimate")


# asym kind -> (handler returning (results, text lines), the options it reads)
_ASYM = {
    "tn": (_asym_tn, ("n", "order")),
    "shift": (_asym_shift, ("n", "m")),
    "prob": (_asym_prob, ("n", "alpha")),
    "vk": (_asym_vk, ("alpha", "a", "b", "m")),
    "mass": (_asym_mass, ("n", "eps")),
}
_TOTAL_ONE = "; --a and --b must sum to exactly 1, so at least one of them is needed"
# asym option -> (type, default, help); every asym record echoes all of them
_ASYM_OPTIONS = {
    "n": (int, 50, None),
    "alpha": (str, "", "contained shape, e.g. 2,1"),
    "order": (int, 2, "number of correction terms, 0 to 2"),
    "eps": (str, "1/2", "window width, a positive rational"),
    "a": (str, "", "row frequencies" + _TOTAL_ONE),
    "b": (str, "", "column frequencies" + _TOTAL_ONE),
    "m": (int, 0, "the shift of t_(n-m), or the row length of the two-row shape (m, m)"),
}


def _cmd_asym(args) -> int:
    results, lines = _ASYM[args.kind][0](args)
    inputs = {name: getattr(args, name) for name in ("kind", *_ASYM_OPTIONS)}
    return _report(args, inputs, results, None, lines)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it.

    Its ``subcommands`` attribute maps each command, ``("skew",)`` or
    ``("asym", "tn")``, to the parser that reads the arguments after it,
    for ``_parse``.  That parser's defaults carry ``cmd`` (and ``kind``).
    Each ``asym`` kind offers only the options it reads, but its defaults
    set every ``_ASYM_OPTIONS`` entry, so every record echoes them all.
    """
    parser = argparse.ArgumentParser(
        prog="skewtab",
        description="Exact SYT counting with cross-validated formulas",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_skew = sub.add_parser("skew", help="count SYT of a skew shape")
    p_skew.add_argument("--outer", required=True, help="outer partition, e.g. 2,2,1")
    p_skew.add_argument("--inner", default="", help="inner partition (default empty)")
    p_skew.add_argument("--method", choices=(*skew_count.routes(), "all"), default="all")
    p_skew.add_argument("--json", action="store_true")
    p_skew.set_defaults(cmd="skew", run=_cmd_skew)

    p_contain = sub.add_parser("contain", help="count n-cell SYT containing a shape")
    p_contain.add_argument("--n", type=int, required=True)
    p_contain.add_argument("--alpha", required=True, help="contained shape, e.g. 2,1")
    p_contain.add_argument("--method", choices=(*containment.routes(), "all"), default="all")
    p_contain.add_argument("--json", action="store_true")
    p_contain.set_defaults(cmd="contain", run=_cmd_contain)

    p_table = sub.add_parser("table", help="containment counts vs closed forms")
    p_table.add_argument("--max-k", dest="max_k", type=int, default=5)
    p_table.add_argument("--n-max", dest="n_max", type=int, default=12)
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(cmd="table", run=_cmd_table)

    parser.subcommands = {("skew",): p_skew, ("contain",): p_contain, ("table",): p_table}
    p_asym = sub.add_parser("asym", help="asymptotic estimates vs exact values")
    kinds = p_asym.add_subparsers(dest="kind", required=True)
    defaults = {name: default for name, (_, default, _) in _ASYM_OPTIONS.items()}
    for kind, (_, reads) in _ASYM.items():
        p_kind = parser.subcommands["asym", kind] = kinds.add_parser(kind)
        for name in reads:
            option_type, _, text = _ASYM_OPTIONS[name]
            p_kind.add_argument(f"--{name}", type=option_type, help=text)
        p_kind.add_argument("--json", action="store_true")
        p_kind.set_defaults(cmd="asym", kind=kind, run=_cmd_asym, **defaults)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, parsing once when argv starts with a command.

    The full parser hands everything after a command, ``skew`` or
    ``asym tn``, to that command's parser, and that parser's defaults set
    ``cmd`` and ``kind``, so parsing with it directly gives the same
    namespace and the same errors.  Leftover arguments go back through the
    full parser, which reports them as unrecognized.
    """
    parser = _build_parser()
    for key in (tuple(argv[:1]), tuple(argv[:2])):
        if key in parser.subcommands:
            args, leftover = parser.subcommands[key].parse_known_args(argv[len(key) :])
            if not leftover:
                return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except InvalidSkewShapeError as exc:
        print(f"invalid skew shape: {exc}", file=sys.stderr)
        return EXIT_INVALID_SHAPE
    except IntegralityError as exc:
        print(f"internal integrality violation: {exc}", file=sys.stderr)
        return EXIT_INTEGRALITY
    except CapacityError as exc:
        print(f"capacity limit: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_OUTPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
