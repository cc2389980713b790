"""Asymptotic formulas evaluated against the exact machinery.

Estimates live in floating point (log-domain where magnitudes explode);
every comparison against exact data happens on the rational side.  The
involution numbers have one Moser-Wyman estimator,
``mw_log_involutions_estimate(n, order, j)``: t_n at j = 0, and t_{n-j}
written in terms of n otherwise.

The TVK/super-Schur layer is exact rational arithmetic throughout: the limiting
ratio f^(lam/alpha) / f^lam under row/column frequencies (a; b) is the
super-Schur value s_alpha(a / -b), computed as the Jacobi-Trudi determinant
det[h_{alpha_i - i + j}] with sum_r h_r t^r = prod_j (1 + b_j t) /
prod_i (1 - a_i t).  Its power-sum expansion over the characters
chi^alpha(nu) is a test oracle, the route that shares no code with it.

``bulk_mass`` sums f^lam over the shapes whose first part and length lie
in the strict window (2 - eps) sqrt(n) < x < (2 + eps) sqrt(n) without
listing them; the list itself is a test oracle that reads the same
``_bulk_window``.  It first counts the shapes on each side of the window
exactly, by inclusion-exclusion on partitions in a box
(``partitions.box_partition_count``), and walks the side that holds fewer:
the members, or the shapes outside, whose sum taken from t_n leaves the
members' sum, since sum_{lam |- n} f^lam = t_n (RSK).  The window is
closed under conjugation and f^lam = f^lam', so on either side only the
shapes with lam_1 >= len(lam) are walked, each once: the sum over
lam_1 > len(lam) is counted twice, the sum over lam_1 = len(lam) once.  A
window that holds every shape (lo = 1, hi >= n) has mass exactly 1 and is
not walked.
The growth constant C_3 of a rescaled limit shape is passed to
``biane_estimate`` directly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, lcm, perm, prod

from .characters import character, syt_count
from .containment import t_shift_coeff
from .exact import DomainError, exact_div, exact_fraction, integer_det
from .partitions import Partition, box_partition_count, validate_partition
from .sequences import involutions

_LOG_FLOAT_MAX = 709.0  # beyond this math.exp overflows a double


class LimitSpec(namedtuple("LimitSpec", "a b")):
    """Row/column frequency data (a; b) for a growing partition sequence.

    Frequencies are exact rationals, weakly decreasing and nonnegative, with
    total mass at most 1 (exactly 1 for the TVK estimator); an infinite or
    NaN frequency raises DomainError.  An immutable tuple subclass: it
    unpacks as ``(a, b)`` and compares and hashes equal to that plain
    tuple.  ``_make`` and ``_replace`` go through the same validation as
    the constructor.
    """

    __slots__ = ()

    def __new__(cls, a, b=()) -> "LimitSpec":
        a = tuple(map(exact_fraction, a))
        b = tuple(map(exact_fraction, b))
        for seq in (a, b):
            if any(x < 0 for x in seq):
                raise ValueError("frequencies must be nonnegative")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("frequencies must be weakly decreasing")
        self = super().__new__(cls, a, b)
        if self.frequency_sum() > 1:
            raise ValueError("total frequency mass exceeds 1")
        return self

    @classmethod
    def _make(cls, iterable) -> "LimitSpec":
        return cls(*iterable)

    def frequency_sum(self) -> Fraction:
        return sum(self.a, Fraction(0)) + sum(self.b, Fraction(0))


def mw_log_involutions_estimate(n: int, order: int = 2, j: int = 0) -> float:
    """Natural log of the Moser-Wyman estimate of t_{n-j}, written in terms of n.

    (1/sqrt 2) n^((n-j)/2) exp(-n/2 + sqrt n - 1/4) times
    1 + (7/24 - j/2)/sqrt n - (119/1152 + 7j/48 - 3j**2/8)/n, cut after
    ``order`` corrections; j = 0 is the expansion of t_n itself.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    if not 0 <= j <= n:
        raise DomainError("need 0 <= j <= n")
    root = math.sqrt(n)
    log_lead = -0.5 * math.log(2) + 0.5 * (n - j) * math.log(n) - 0.5 * n + root - 0.25
    corr = 1.0
    if order >= 1:
        corr += (7 / 24 - j / 2) / root
    if order >= 2:
        corr -= (119 / 1152 + 7 * j / 48 - 3 * j * j / 8) / n
    if corr <= 0:
        raise DomainError("correction factor is not positive; j is too large for n")
    return log_lead + math.log(corr)


def exp_estimate(log_value: float) -> float:
    """The float exp(log_value) of a log estimate; inf beyond float range."""
    return math.inf if log_value > _LOG_FLOAT_MAX else math.exp(log_value)


def relative_error(log_estimate: float, exact: int) -> float:
    """estimate/exact - 1, computed in log space so huge exacts are safe."""
    if exact <= 0:
        raise DomainError("exact value must be positive")
    return math.expm1(log_estimate - math.log(exact))


def containment_probability_estimate(n: int, alpha: Partition) -> float:
    """Three-term truncation of the containment probability P(n; alpha).

    f^alpha/k! + e_3/n^(3/2) - (3 e_3 - 2 e_4)/n**2, with the exact expansion
    coefficients converted to floats.  Shapes with fewer than 3 (resp. 4)
    cells have no e_3 (resp. e_4) term.
    """
    if n < 1:
        raise DomainError("n must be positive")
    k = sum(alpha)
    e0 = Fraction(syt_count(alpha), factorial(k))
    e3 = t_shift_coeff(3, alpha) if k >= 3 else Fraction(0)
    e4 = t_shift_coeff(4, alpha) if k >= 4 else Fraction(0)
    return float(e0) + float(e3) / n**1.5 - float(3 * e3 - 2 * e4) / n**2


def biane_estimate(f_lambda: int, n: int, alpha: Partition, c3: float) -> float:
    """Two-term estimate of f^(lam/alpha) for lam near a rescaled limit shape.

    f_lambda * (f^alpha/k! + C_3 chi^alpha(transposition)/(2 (k-2)! sqrt n)).
    For shapes with fewer than 2 cells the transposition class does not
    exist and the leading term is returned.
    """
    if n < 1:
        raise DomainError("n must be positive")
    k = sum(alpha)
    lead = float(f_lambda) * syt_count(alpha) / factorial(k)
    if k < 2:
        return lead
    chi = character(alpha, (2,) + (1,) * (k - 2))
    return lead + float(f_lambda) * c3 * chi / (2 * factorial(k - 2) * math.sqrt(n))


def _bulk_window(n: int, eps) -> tuple[int, int]:
    """The strict bulk window (2 - eps) sqrt(n) < x < (2 + eps) sqrt(n) as an
    integer range lo <= x <= hi.

    For a positive integer x, x**2 < c iff x <= isqrt(ceil(c) - 1), and
    x**2 > c iff x >= isqrt(floor(c)) + 1; from eps = 2 on there is no lower
    bound.
    """
    if n < 1:
        raise DomainError("n must be positive")
    eps = exact_fraction(eps)
    if eps <= 0:
        raise DomainError("eps must be positive")
    hi = math.isqrt(math.ceil((2 + eps) ** 2 * n) - 1)
    lo = math.isqrt(math.floor((2 - eps) ** 2 * n)) + 1 if eps < 2 else 1
    return lo, hi


def _window_rows_sum(n: int, ell: int, lo: int, hi: int) -> int:
    """Sum of f^lam over partitions lam of n with exactly ell >= 1 rows and
    first part in [lo, hi].

    With beta set b_i = lam_i + ell - 1 - i and N = n + ell(ell - 1)/2,
    f^lam = (n!/N!) * multinomial(N; b) * prod_{i<j} (b_i - b_j).  Rows are
    placed top-down from an explicit stack: each placed row multiplies in one
    binomial (its beta value out of the beta sum still unplaced) and its
    differences to the rows above.  A frame with as many cells left as rows
    left has one completion, every row 1, and closes in one step: its beta
    values rows, ..., 1 sum to T = rows(rows + 1)/2, their multinomial times
    their own differences is T!/rows!, and each placed beta c contributes
    prod_{v=1..rows} (c - v) = perm(c - 1, rows).  The leaf products are
    summed and N!/n! is divided out once, checked by ``exact_div``.
    """
    big_n = n + ell * (ell - 1) // 2
    total = 0
    # a frame: beta values placed so far, cells still to place, weight so far
    stack = [
        ((p + ell - 1,), n - p, comb(big_n, p + ell - 1))
        for p in range(max(lo, -(-n // ell)), min(hi, n - ell + 1) + 1)
    ]
    while stack:
        betas, left, weight = stack.pop()
        rows = ell - len(betas)
        if left == rows:  # a column of 1s; perm(tri, tri - rows) = tri!/rows!
            tri = rows * (rows + 1) // 2
            total += weight * perm(tri, tri - rows) * prod(perm(c - 1, rows) for c in betas)
            continue
        if rows == 1:  # the last row takes what is left; its beta is left
            total += weight * prod(c - left for c in betas)
            continue
        shift = rows - 1
        beta_left = left + rows * shift // 2
        prev = betas[-1] - rows  # the part of the row above
        for p in range(-(-left // rows), min(prev, left - shift) + 1):
            b = p + shift
            stack.append(
                (
                    betas + (b,),
                    left - p,
                    weight * comb(beta_left, b) * prod(c - b for c in betas),
                )
            )
    return exact_div(total, prod(range(n + 1, big_n + 1)), "bulk rows of n=%d, ell=%d", n, ell)


def _bulk_counts(n: int, lo: int, hi: int) -> tuple[int, int]:
    """How many partitions of n lie in the window lo..hi, and how many do not.

    With B(r, c) the partitions of n in an r x c box, the shapes whose first
    part and length both lie in lo..hi number
    B(hi, hi) - 2 B(lo - 1, hi) + B(lo - 1, lo - 1): the hi x hi box less
    the shapes too short and, by conjugation as many, those too narrow, with
    the shapes that are both added back.  It is 0 when lo = hi + 1, the
    widest gap ``_bulk_window`` leaves.  All of them number p(n) = B(n, n).
    """
    members = (
        box_partition_count(n, hi, hi)
        - 2 * box_partition_count(n, lo - 1, hi)
        + box_partition_count(n, lo - 1, lo - 1)
    )
    return members, box_partition_count(n, n, n) - members


def _members_rows_sum(n: int, lo: int, hi: int) -> int:
    """Sum of f^lam over the members of the window lo..hi.

    Over the lengths ell in the window, the first parts lam_1 >= ell in the
    window are [ell, hi]: twice the walk over [ell + 1, hi] and once the walk
    over lam_1 = ell.
    """
    total = 0
    for ell in range(lo, min(hi, (n + 1) // 2) + 1):
        total += 2 * _window_rows_sum(n, ell, ell + 1, hi) + _window_rows_sum(n, ell, ell, ell)
    return total


def _outside_rows_sum(n: int, lo: int, hi: int) -> int:
    """Sum of f^lam over the partitions of n outside the window lo..hi.

    A length ell in the window leaves out the first parts lam_1 > hi, all
    above ell: twice the walk over [hi + 1, n].  Any other length leaves out
    every shape of ell rows: twice the walk over [ell + 1, n] and once the
    walk over lam_1 = ell.
    """
    total = 0
    for ell in range(1, (n + 1) // 2 + 1):
        if lo <= ell <= hi:
            total += 2 * _window_rows_sum(n, ell, hi + 1, n)
        else:
            total += 2 * _window_rows_sum(n, ell, ell + 1, n) + _window_rows_sum(n, ell, ell, ell)
    return total


def bulk_mass(n: int, eps) -> Fraction:
    """Exact fraction of all n-cell SYT whose shape lies in the bulk window.

    The shapes in the window and the shapes outside it are counted first
    (``_bulk_counts``, a few Gaussian-binomial coefficients), and the side
    that holds fewer is walked: the members give sum_W f / t_n, the shapes
    outside give (t_n - sum_outside f) / t_n, since the f^lam of all shapes
    of n sum to t_n.  The Fraction is the same either way.

    The window W is closed under conjugation and f^lam = f^lam', so the
    shapes with lam_1 < len(lam) count the same as those with
    lam_1 > len(lam), and on either side

        sum f = sum_ell (2 sum_{lam_1 > ell} f + sum_{lam_1 = ell} f)

    over the lengths ell, with the first parts restricted to that side.  A
    shape with ell rows and lam_1 >= ell has at least 2 ell - 1 cells, so
    the lengths stop at (n + 1) // 2.  Each term is one beta-set walk over
    one range of first parts (``_window_rows_sum``), with one division per
    walk checked by ``exact_div``; the two walks of a length split its first
    parts, so each shape of the walked side is placed once.  A shape whose
    remaining rows are all 1 is closed in one step, not one frame per row.
    Nothing is sized by the window's upper bound, which can be huge for
    large eps.  A window with lo = 1 and hi >= n holds every shape of n
    cells, so its mass is exactly 1 and nothing is counted or walked.
    """
    lo, hi = _bulk_window(n, eps)
    if lo == 1 and hi >= n:
        return Fraction(1)  # every first part and length lies in [1, n]
    t_n = involutions(n)
    members, outside = _bulk_counts(n, lo, hi)
    if members > outside:
        return Fraction(t_n - _outside_rows_sum(n, lo, hi), t_n)
    return Fraction(_members_rows_sum(n, lo, hi), t_n)


def super_schur_value(alpha: Partition, a, b) -> Fraction:
    """Super-Schur value s_alpha(a / -b) as a Jacobi-Trudi determinant.

    det[h_{alpha_i - i + j}] with sum_r h_r t^r = prod_j (1 + b_j t) /
    prod_i (1 - a_i t) (Berele-Regev; Macdonald I (3.4)), which is robust for
    repeated values (the bialternant is not).  s_alpha is homogeneous of
    degree |alpha|, so every value is scaled by the common denominator D:
    the h_r and the matrix are integers, ``integer_det`` evaluates it, and
    D**|alpha| divides the result back out.  Raises ValueError when alpha
    is not a partition, and DomainError for an infinite or NaN value.
    """
    alpha = validate_partition(alpha)
    a = tuple(map(exact_fraction, a))
    b = tuple(map(exact_fraction, b))
    if not alpha:
        return Fraction(1)
    den = lcm(*(v.denominator for v in a + b))
    ell = len(alpha)
    top = alpha[0] + ell - 1
    h = [1] + [0] * top  # D**r h_r, truncated after t**top
    for v in b:  # times (1 + v t)
        c = v.numerator * (den // v.denominator)
        for r in range(top, 0, -1):
            h[r] += c * h[r - 1]
    for v in a:  # over (1 - v t)
        c = v.numerator * (den // v.denominator)
        for r in range(1, top + 1):
            h[r] += c * h[r - 1]
    matrix = [
        [h[d] if d >= 0 else 0 for d in range(alpha[i] - i, alpha[i] - i + ell)]
        for i in range(ell)
    ]
    return Fraction(integer_det(matrix), den ** sum(alpha))


def tvk_skew_estimate(f_lambda: int, alpha: Partition, spec: LimitSpec) -> float:
    """f^(lam/alpha) estimate f_lambda * s_alpha(a / -b) under TVK frequencies."""
    if spec.frequency_sum() != 1:
        raise ValueError("TVK frequencies must sum to exactly 1")
    return float(f_lambda * super_schur_value(alpha, spec.a, spec.b))
