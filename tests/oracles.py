"""Test-only oracles: slow, desk-scale recomputations by routes that share
no code with the library's own.

``character_oracle`` reads characters off the alternant times a power sum,
independently of the layered border-strip rule.  ``schur_sum_identity_check``
checks the Schur-sum identity behind the acceptance suite's criterion 12.
``leibniz_det`` is the permutation-sum determinant, with no elimination.
``aitken_full_count`` is f^(lam/alpha) by Bareiss over Aitken's whole
``len(lam) x len(lam)`` beta-set matrix, the check on ``skew_syt_det``'s
Newton reduction of that matrix to ``len(alpha) x len(alpha)``.
``hook_length_count`` is f^lam by the hook-length formula, the check on the
library's Frobenius count ``syt_count``.
``mw_log_plain_reference`` and ``mw_log_shifted_reference`` are the two
Moser-Wyman estimators of t_n and t_{n-j} that
``mw_log_involutions_estimate(n, order, j)`` replaced, kept as they were,
the check that the one estimator returns the same floats.
``recursive_descending_parts`` is the recursive partition generator with a
smallest-part bound that the library once ran, kept as it was: the check
that ``partitions_of`` (its ZS1 successor rule) and
``partitions_no_small_parts`` (a filter over it) keep their order.
``boxed_partitions`` enumerates the partitions inside a box, and
``bulk_members`` lists the shapes of the bulk window with it; the window
itself is read from the library's ``_bulk_window``, so the members check
the runtime window while ``bulk_mass`` never lists them.
``unfolded_bulk_rows_sum`` is ``bulk_mass``'s numerator before the
conjugate fold: every length's walk over every first part in the window.
``super_schur_power_sum`` evaluates s_alpha(a / -b) as
sum over nu of chi^alpha(nu)/z_nu * prod_j (p_{nu_j}(a) + (-1)^(nu_j - 1)
p_{nu_j}(b)), with no determinant: the runtime ``super_schur_value`` is the
Jacobi-Trudi determinant.  ``power_sum`` evaluates p_r at a rational
vector for both power-sum sides.  ``transposition_character`` reads the
character on a transposition class off the cell contents, the check on the
library's ``character(alpha, (2, 1, ..., 1))`` that ``biane_estimate`` uses.
``per_shift_coeff`` is e_j(alpha) as ``t_shift_coeff`` once computed it, one
j at a time with its own classes and its own ``character_column`` call: the
check on the row that ``N_expansion`` now reads for all j at once.
``skew_cells`` lists the cells of a skew shape, for tests that place
entries in them one by one.
``q_weighted_row`` is the single-row count N(n+k; k) in its q-weighted
form, the check on ``N_row``'s binomial convolution; ``stability_check``
and ``generating_poly_check`` test ``N_row`` against b_n and A_n(x).
``schur_value`` is ``super_schur_value`` with no b values, and
``rectangle_factorization`` evaluates s_alpha(a / -b) for alpha an i x j
rectangle with mu on its right and nu' below as s_mu(a) s_nu(b) times
prod (a_r + b_s), the check on the determinant for those shapes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, permutations
from math import comb, factorial, perm, prod
from typing import Iterator

from skewtab.asymptotics import _bulk_window, _window_rows_sum, super_schur_value
from skewtab.characters import character, character_column, syt_count
from skewtab.containment import N_row
from skewtab.exact import DomainError, integer_det
from skewtab.partitions import (
    InvalidSkewShapeError,
    Partition,
    SkewShape,
    centralizer_order,
    conjugate,
    contains,
    partitions_no_small_parts,
    partitions_of,
    square_cycle_type,
)
from skewtab.sequences import a_poly, b_stable, involutions, q_coeff

ORACLE_WEIGHT_CAP = 8


def per_shift_coeff(j: int, alpha: Partition) -> Fraction:
    """e_j(alpha) = 1/(k-j)! * sum over mu of j with parts >= 3 of chi^alpha(mu^2, 1^(k-j)) / z_mu."""
    k = sum(alpha)
    if not 0 <= j <= k:
        raise DomainError("j must lie between 0 and |alpha|")
    mus = list(partitions_no_small_parts(j))
    column = character_column(alpha, [square_cycle_type(mu) for mu in mus])
    total = Fraction(0)
    for mu, chi in zip(mus, column):
        total += Fraction(chi, centralizer_order(mu))
    return total / factorial(k - j)


def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def leibniz_det(matrix: list[list[int]]) -> int:
    """Determinant as the signed sum over permutations; 1 for the 0x0 matrix."""
    total = 0
    for perm in permutations(range(len(matrix))):
        term = _perm_sign(perm)
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def aitken_full_count(shape: SkewShape) -> int:
    """f^(lam/alpha) as n! det[perm(a_i, b_j)] / prod(a_i!) over all len(lam) beta rows.

    a and b are the beta sets of lam and of alpha padded to len(lam) rows,
    both ascending; the whole matrix goes to Bareiss.
    """
    lam, alpha = shape.outer, shape.inner
    padded = alpha + (0,) * (len(lam) - len(alpha))
    a = [p + i for i, p in enumerate(reversed(lam))]
    b = [p + j for j, p in enumerate(reversed(padded))]
    numerator = factorial(shape.size) * integer_det([[perm(ai, bj) for bj in b] for ai in a])
    count, rem = divmod(numerator, prod(map(factorial, a)))
    assert rem == 0, shape
    return count


def hook_length_count(lam: Partition) -> int:
    """f^lam as n! over the product of the hook lengths."""
    if not lam:
        return 1
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    hooks = prod(part - j + cols[j] - i - 1 for i, part in enumerate(lam) for j in range(part))
    return factorial(sum(lam)) // hooks


def mw_log_plain_reference(n: int, order: int = 2) -> float:
    """Natural log of the involution-number estimate with ``order`` corrections.

    Leading term (1/sqrt 2) n^(n/2) exp(-n/2 + sqrt n - 1/4); corrections
    1 + 7/(24 sqrt n) - 119/(1152 n).
    """
    if n < 1:
        raise DomainError("n must be positive")
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    root = math.sqrt(n)
    log_lead = -0.5 * math.log(2) + 0.5 * n * math.log(n) - 0.5 * n + root - 0.25
    corr = 1.0
    if order >= 1:
        corr += 7 / (24 * root)
    if order >= 2:
        corr -= 119 / (1152 * n)
    return log_lead + math.log(corr)


def mw_log_shifted_reference(n: int, j: int) -> float:
    """Natural log of the t_{n-j} estimate written in terms of n.

    (1/sqrt 2) n^((n-j)/2) exp(-n/2 + sqrt n - 1/4) times
    1 + (7/24 - j/2)/sqrt n - (119/1152 + 7j/48 - 3j**2/8)/n; at j = 0 this
    is exactly the order-2 estimate for t_n.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if not 0 <= j <= n:
        raise DomainError("need 0 <= j <= n")
    root = math.sqrt(n)
    log_lead = -0.5 * math.log(2) + 0.5 * (n - j) * math.log(n) - 0.5 * n + root - 0.25
    corr = 1 + (7 / 24 - j / 2) / root - (119 / 1152 + 7 * j / 48 - 3 * j * j / 8) / n
    if corr <= 0:
        raise DomainError("correction factor is not positive; j is too large for n")
    return log_lead + math.log(corr)


def recursive_descending_parts(n: int, largest: int, smallest: int) -> Iterator[Partition]:
    """Partitions of n with parts in [smallest, largest], in reverse-lex order.

    One recursion level per part: the first part runs down from
    min(n, largest), and the rest is the same enumeration of what is left
    with that first part as its largest.
    """
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), smallest - 1, -1):
        rest = n - first
        if rest and rest < smallest:
            continue
        for tail in recursive_descending_parts(rest, first, smallest):
            yield (first,) + tail


def _boxed_parts(n: int, max_part: int, max_len: int) -> Iterator[Partition]:
    # The tail has at most max_len - 1 parts, none above the first, so
    # first >= ceil(n / max_len): the bound sits in the loop's lower limit,
    # (n - 1) // max_len = ceil(n / max_len) - 1.
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), (n - 1) // max_len, -1):
        for tail in _boxed_parts(n - first, first, max_len - 1):
            yield (first,) + tail


def boxed_partitions(n: int, max_part: int, max_len: int) -> Iterator[Partition]:
    """Partitions of n with at most max_len parts, none above max_part.

    Only partitions inside the ``max_len x max_part`` box are generated, in
    the reverse-lexicographic order of ``partitions_of``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if max_len > 0 or n == 0:  # an empty box holds only the empty partition
        yield from _boxed_parts(n, max_part, max_len)


def bulk_members(n: int, eps) -> list[Partition]:
    """Partitions of n whose first part and length both lie in the bulk window.

    The window is decided once as an integer range (``_bulk_window``), and
    only partitions inside the hi x hi box are generated.
    """
    lo, hi = _bulk_window(n, eps)
    return [
        lam
        for lam in boxed_partitions(n, hi, hi)
        if lam[0] >= lo and len(lam) >= lo
    ]


def unfolded_bulk_rows_sum(n: int, eps) -> int:
    """Sum of f^lam over the bulk window, one walk per length over every
    first part in the window: bulk_mass(n, eps) * involutions(n) with no
    conjugate fold."""
    lo, hi = _bulk_window(n, eps)
    return sum(_window_rows_sum(n, ell, lo, hi) for ell in range(lo, min(hi, n) + 1))


def power_sum(r: int, values) -> Fraction:
    """Power sum p_r evaluated at a rational vector."""
    if r < 1:
        raise ValueError("r must be positive")
    return sum((Fraction(v) ** r for v in values), Fraction(0))


def super_schur_power_sum(alpha: Partition, a, b) -> Fraction:
    """Super-Schur value s_alpha(a / -b) from its power-sum expansion."""
    a = tuple(Fraction(v) for v in a)
    b = tuple(Fraction(v) for v in b)
    k = sum(alpha)
    total = Fraction(0)
    for nu in partitions_of(k):
        chi = character(alpha, nu)
        if chi == 0:
            continue
        product = Fraction(1)
        for part in nu:
            term = power_sum(part, a) if a else Fraction(0)
            if b:
                sign = 1 if part % 2 else -1
                term += sign * power_sum(part, b)
            product *= term
            if product == 0:
                break
        total += Fraction(chi, centralizer_order(nu)) * product
    return total


def transposition_character(alpha: Partition) -> Fraction:
    """Character of shape alpha on a transposition class, via cell contents.

    Equals f^alpha * (sum C(alpha_i, 2) - sum C(alpha'_i, 2)) / C(k, 2); the
    rational always reduces to the integer character value.
    """
    k = sum(alpha)
    if k < 2:
        raise ValueError("transposition class needs weight >= 2")
    rows = sum(comb(p, 2) for p in alpha)
    cols = sum(comb(p, 2) for p in conjugate(alpha))
    return Fraction(syt_count(alpha) * (rows - cols), comb(k, 2))


def character_oracle(lam: Partition, mu: Partition) -> int:
    """Desk-scale recomputation of character(lam, mu) by alternant extraction.

    Expands the power sum p_mu in len(lam) variables as a monomial dict, then
    reads off the coefficient of x**(lam + delta) in the product with the
    Vandermonde alternant.  Independent of the border-strip recursion.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"invalid character key: |{lam}| != |{mu}|")
    n = sum(lam)
    if n > ORACLE_WEIGHT_CAP:
        raise ValueError(f"oracle is desk-scale only (weight <= {ORACLE_WEIGHT_CAP})")
    if n == 0:
        return 1
    nvars = len(lam)
    delta = tuple(range(nvars - 1, -1, -1))
    target = tuple(lam[i] + delta[i] for i in range(nvars))
    poly: dict[tuple[int, ...], int] = {(0,) * nvars: 1}
    for part in mu:
        grown: dict[tuple[int, ...], int] = {}
        for exps, coeff in poly.items():
            for i in range(nvars):
                bumped = exps[:i] + (exps[i] + part,) + exps[i + 1 :]
                grown[bumped] = grown.get(bumped, 0) + coeff
        poly = grown
    total = 0
    for perm in permutations(range(nvars)):
        needed = tuple(target[i] - delta[perm[i]] for i in range(nvars))
        if min(needed) < 0:
            continue
        total += _perm_sign(perm) * poly.get(needed, 0)
    return total


def schur_sum_identity_check(n: int, values) -> bool:
    """Check sum over lam of s_lam = sum over lam of p_(square type)/z_lam.

    Both sides are restricted to partitions of n and evaluated exactly at the
    given rational vector.  Desk-scale guard: n <= 8 and at most 4 values.
    """
    if n > 8 or len(tuple(values)) > 4:
        raise ValueError("identity check is desk-scale only (n <= 8, <= 4 values)")
    values = tuple(Fraction(v) for v in values)
    schur_side = sum((schur_value(lam, values) for lam in partitions_of(n)), Fraction(0))
    power_side = Fraction(0)
    for lam in partitions_of(n):
        product = Fraction(1)
        for part in square_cycle_type(lam):
            product *= power_sum(part, values)
            if product == 0:
                break
        power_side += Fraction(1, centralizer_order(lam)) * product
    return schur_side == power_side


def skew_cells(lam: Partition, alpha: Partition) -> list[tuple[int, int]]:
    """Row-major list of (row, column) cells of lam/alpha, 1-indexed."""
    if not contains(lam, alpha):
        raise InvalidSkewShapeError(f"{alpha} is not contained in {lam}")
    padded = alpha + (0,) * (len(lam) - len(alpha))
    return [
        (i + 1, j + 1)
        for i, (outer, inner) in enumerate(zip(lam, padded))
        for j in range(inner, outer)
    ]


def q_weighted_row(n_plus_k: int, k: int) -> Fraction:
    """N(n+k; k) as sum_j q_j/(k-j)! t_{n+k-j}, a Fraction that is an integer."""
    if not 0 <= k <= n_plus_k:
        raise DomainError("need n_plus_k >= k >= 0")
    return sum(
        (q_coeff(j) / factorial(k - j) * involutions(n_plus_k - j) for j in range(k + 1)),
        Fraction(0),
    )


def generating_poly_check(n: int, max_k: int) -> bool:
    """True iff sum_k N(n+k; k) x**k matches a_poly(n) / (1 - x) up to max_k."""
    if n < 0 or max_k < n:
        raise DomainError("need max_k >= n >= 0")
    partial_sums = list(accumulate(a_poly(n)))
    return all(
        N_row(n + k, k) == partial_sums[min(k, n)] for k in range(max_k + 1)
    )


def stability_check(k: int) -> bool:
    """True iff N(n+k; k) has stabilized to b_n for every n <= k."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    return all(N_row(n + k, k) == b_stable(n) for n in range(k + 1))


def schur_value(mu: Partition, values) -> Fraction:
    """Schur polynomial s_mu evaluated at a rational vector (no b values)."""
    return super_schur_value(mu, values, ())


def rectangle_factorization(
    i: int, j: int, mu: Partition, nu: Partition, a, b
) -> tuple[Partition, Fraction]:
    """Build alpha = (i x j rectangle) + mu on the right + nu' below, and
    evaluate s_alpha(a / -b) as s_mu(a) s_nu(b) prod (a_r + b_s).

    Returns (alpha, value) so callers can cross-check against
    ``super_schur_value(alpha, a, b)``.
    """
    a = tuple(Fraction(v) for v in a)
    b = tuple(Fraction(v) for v in b)
    if len(a) != i or len(b) != j:
        raise ValueError("need exactly i values in a and j values in b")
    if len(mu) > i or len(nu) > j:
        raise ValueError("mu must fit in i rows and nu in j rows")
    padded_mu = mu + (0,) * (i - len(mu))
    rows = [padded_mu[r] + j for r in range(i)]
    alpha = tuple(p for p in rows + list(conjugate(nu)) if p > 0)
    value = schur_value(mu, a) * schur_value(nu, b)
    for ar in a:
        for bs in b:
            value *= ar + bs
    return alpha, value
