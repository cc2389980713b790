"""Skew-shape SYT counts by three mutually independent methods.

* ``skew_syt_brute``  -- depth-first placement of 1..n at addable corners
  (path counting between the inner and outer shape),
* ``skew_syt_det``    -- the classical factorial determinant,
* ``skew_syt_char``   -- a character sum over classes of the inner weight.

The three agree on every valid input; the test suite asserts this, and
higher layers pick whichever is cheapest for their regime.  ``routes()`` is
the one list of them, by name, in the order the CLI's ``--method all`` runs
them.  The loops that run one determinant per shape
(``sum_skew_over_inner`` here and ``containment.N_direct``) take each count
in the orientation with fewer rows, since ``f^(lam/alpha) = f^(lam'/alpha')``;
``skew_syt_det`` itself never conjugates, so comparing it with its value on
the conjugate shape still compares two computations.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import factorial

from .characters import character, syt_count
from .exact import IntegralityError, as_integer, integer_det
from .partitions import Partition, SkewShape, centralizer_order, contains, partitions_of

BRUTE_FORCE_CELL_CAP = 25


def skew_syt_brute(shape: SkewShape) -> int:
    """Count skew SYT by growing the inner shape one cell at a time.

    Capped at BRUTE_FORCE_CELL_CAP cells; use the determinant or character
    method beyond that.
    """
    if shape.size > BRUTE_FORCE_CELL_CAP:
        raise ValueError(
            f"brute-force enumeration capped at {BRUTE_FORCE_CELL_CAP} cells; "
            "use skew_syt_det or skew_syt_char"
        )
    outer = shape.outer
    start = shape.inner + (0,) * (len(outer) - len(shape.inner))
    memo: dict[tuple[int, ...], int] = {}

    def paths(cur: tuple[int, ...]) -> int:
        if cur == outer:
            return 1
        hit = memo.get(cur)
        if hit is not None:
            return hit
        total = 0
        for i, row in enumerate(cur):
            if row < outer[i] and (i == 0 or row < cur[i - 1]):
                total += paths(cur[:i] + (row + 1,) + cur[i + 1 :])
        memo[cur] = total
        return total

    return paths(start)


def skew_syt_det(shape: SkewShape) -> int:
    """Count skew SYT via the factorial determinant.

    The (i, j) entry is 1/(lam_i - alpha_j - i + j)! with 1/m! = 0 for m < 0;
    rows are rescaled by (lam_i + ell - i)! so the determinant is computed in
    integers, and the final division is checked exact.
    """
    lam, alpha = shape.outer, shape.inner
    ell = len(lam)
    if ell == 0:
        return 1
    padded = alpha + (0,) * (ell - len(alpha))
    scale = [factorial(lam[i] + ell - 1 - i) for i in range(ell)]
    matrix = []
    for i in range(ell):
        row = []
        for j in range(ell):
            m = lam[i] - padded[j] - i + j
            row.append(0 if m < 0 else scale[i] // factorial(m))
        matrix.append(row)
    det = integer_det(matrix)
    numerator = factorial(shape.size) * det
    denominator = 1
    for s in scale:
        denominator *= s
    count, rem = divmod(numerator, denominator)
    if rem != 0 or count < 0:
        raise IntegralityError(
            f"determinant count for {lam}/{alpha} is not a nonnegative integer"
        )
    return count


def skew_syt_char(shape: SkewShape) -> int:
    """Count skew SYT as sum over nu of chi^lam(nu, 1^(n-k)) chi^alpha(nu) / z_nu."""
    lam, alpha = shape.outer, shape.inner
    n, k = sum(lam), sum(alpha)
    total = Fraction(0)
    for nu in partitions_of(k):
        extended = tuple(sorted(nu + (1,) * (n - k), reverse=True))
        total += Fraction(
            character(lam, extended) * character(alpha, nu),
            centralizer_order(nu),
        )
    count = as_integer(total, f"character count for {lam}/{alpha}")
    if count < 0:
        raise IntegralityError(f"character count for {lam}/{alpha} is negative")
    return count


def routes() -> dict[str, Callable[[SkewShape], int]]:
    """The skew routes by name, in the order ``--method all`` runs them.

    Built on every call, so a route rebound on this module is what runs.
    """
    return {"brute": skew_syt_brute, "det": skew_syt_det, "char": skew_syt_char}


def _det_fewer_rows(shape: SkewShape) -> int:
    """skew_syt_det on shape or on its conjugate, whichever has fewer rows.

    The determinant's dimension is the outer shape's length, and transposing
    every tableau gives f^(lam/alpha) = f^(lam'/alpha').
    """
    outer = shape.outer
    if outer and len(outer) > outer[0]:
        shape = shape.conjugate()
    return skew_syt_det(shape)


def sum_skew_over_inner(alpha: Partition, m: int) -> int:
    """Sum of f^(alpha/mu) over all mu of weight m; mu not inside alpha add 0.

    Only the partitions inside alpha's bounding box are generated.
    """
    if not 0 <= m <= sum(alpha):
        raise ValueError("m must lie between 0 and |alpha|")
    width = alpha[0] if alpha else 0
    return sum(
        _det_fewer_rows(SkewShape(alpha, mu))
        for mu in partitions_of(m, max_part=width, max_len=len(alpha))
        if contains(alpha, mu)
    )
