"""Counts N(n; alpha) of n-cell SYT containing a fixed tableau of shape alpha.

Three independent routes are implemented and cross-checked:

* ``N_direct``    -- the definition: sum f^(lam/alpha) over all lam of n cells,
* ``N_expansion`` -- a finite linear combination of shifted involution
  numbers, sum_j e_j(alpha) t_{n-j}, with character coefficients,
* ``N_binomial``  -- a binomial convolution of involution numbers against
  skew counts inside alpha, all read from one walk down Young's lattice
  (``skew_count.path_totals`` from alpha to the empty shape, whose entry j
  sums f^(alpha/mu) over the mu of weight |alpha| - j).

The three share no code: direct runs determinants, expansion characters,
and binomial the walk.  The walk keeps each shape as a bead mask, its beta
set in bits, and builds those masks itself rather than from the beta sets
of ``characters``, so binomial and expansion stay independent.
``routes()`` is the one list of them, by name, in the order the CLI's
``--method all`` runs them.  ``N_direct`` takes each determinant in the
orientation with fewer rows: it conjugates alpha once and counts every lam
longer than it is wide as ``f^(lam'/alpha')``, which equals
``f^(lam/alpha)``.  It validates alpha once and hands the determinant
plain ``(lam, alpha)`` pairs, with no ``SkewShape`` per lam.
``N_expansion`` brings its coefficients to one denominator and divides
once.  Every route raises DomainError for a negative n
and returns 0 for 0 <= n < |alpha|.

``CLOSED_FORMS`` freezes the classical closed forms for every shape with at
most 5 cells; they serve as golden values for the expansion route.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm

from .characters import character_column
from .exact import DomainError, IntegralityError, exact_div
from .partitions import (
    Partition,
    centralizer_order,
    conjugate,
    contains,
    partitions_no_small_parts,
    partitions_of,
    square_cycle_type,
    validate_partition,
)
from .sequences import a_poly, b_stable, involutions, q_coeff
from .skew_count import path_totals, skew_syt_det

# den, {shift j: numerator of e_j * den}; value = sum_j num * t_{n-j} / den.
CLOSED_FORMS: dict[Partition, tuple[int, dict[int, int]]] = {
    (1,): (1, {0: 1}),
    (2,): (2, {0: 1}),
    (1, 1): (2, {0: 1}),
    (3,): (6, {0: 1, 3: 2}),
    (1, 1, 1): (6, {0: 1, 3: 2}),
    (2, 1): (3, {0: 1, 3: -1}),
    (4,): (24, {0: 1, 3: 8, 4: 6}),
    (1, 1, 1, 1): (24, {0: 1, 3: 8, 4: 6}),
    (3, 1): (8, {0: 1, 4: -2}),
    (2, 1, 1): (8, {0: 1, 4: -2}),
    (2, 2): (12, {0: 1, 3: -4, 4: 6}),
    (5,): (120, {0: 1, 3: 20, 4: 30, 5: 24}),
    (1, 1, 1, 1, 1): (120, {0: 1, 3: 20, 4: 30, 5: 24}),
    (4, 1): (30, {0: 1, 3: 5, 5: -6}),
    (2, 1, 1, 1): (30, {0: 1, 3: 5, 5: -6}),
    (3, 2): (24, {0: 1, 3: -4, 4: 6}),
    (2, 2, 1): (24, {0: 1, 3: -4, 4: 6}),
    (3, 1, 1): (20, {0: 1, 4: -10, 5: 4}),
}


@lru_cache(maxsize=None)
def t_shift_coeff(j: int, alpha: Partition) -> Fraction:
    """Coefficient e_j(alpha) of t_{n-j} in the expansion of N(n; alpha).

    e_j = 1/(k-j)! * sum over mu of weight j with all parts >= 3 of
    chi^alpha(square_cycle_type(mu), 1^(k-j)) / z_mu.  In particular e_0 is
    f^alpha / k! and e_1 = e_2 = 0 (no partitions avoid parts 1, 2).
    """
    k = sum(alpha)
    if not 0 <= j <= k:
        raise DomainError("j must lie between 0 and |alpha|")
    mus = list(partitions_no_small_parts(j))
    column = character_column(alpha, [square_cycle_type(mu) for mu in mus])
    total = Fraction(0)
    for mu, chi in zip(mus, column):
        total += Fraction(chi, centralizer_order(mu))
    return total / factorial(k - j)


def N_direct(n: int, alpha: Partition) -> int:
    """N(n; alpha) from the definition: sum of f^(lam/alpha) over lam of n cells.

    One ``skew_syt_det`` per lam, in the orientation with fewer rows: a lam
    longer than it is wide is counted as f^(lam'/alpha').  Its Newton
    levels run over those min(len(lam), lam[0]) rows, and the matrix left
    for ``integer_det`` is len(alpha) wide, or len(alpha') when conjugated.
    alpha is validated once; every lam from ``partitions_of`` that contains
    it goes to the determinant as a plain ``(lam, alpha)`` pair, or
    ``(lam', alpha')``, with no ``SkewShape`` built per lam.  Each
    determinant keeps its own checked division.
    """
    alpha = validate_partition(alpha)
    if n < 0:
        raise DomainError("n must be nonnegative")
    alpha_t = conjugate(alpha)
    width = alpha[0] if alpha else 0
    total = 0
    for lam in partitions_of(n):
        if lam and lam[0] < width:
            break  # reverse-lex: every later lam has a smaller first part
        if len(lam) < len(alpha) or not contains(lam, alpha):
            continue
        if lam and len(lam) > lam[0]:
            total += skew_syt_det((conjugate(lam), alpha_t))
        else:
            total += skew_syt_det((lam, alpha))
    return total


def N_expansion(n: int, alpha: Partition) -> int:
    """N(n; alpha) as sum_j e_j(alpha) t_{n-j}; zero for 0 <= n < |alpha|.

    The e_j are brought to one denominator D, the lcm of theirs, so the sum
    is sum_j num_j * (D / den_j) * t_{n-j} in integers, and the one division
    by D is checked by ``exact_div``.
    """
    alpha = validate_partition(alpha)
    if n < 0:
        raise DomainError("n must be nonnegative")
    k = sum(alpha)
    if n < k:
        return 0
    coeffs = [t_shift_coeff(j, alpha) for j in range(k + 1)]
    den = lcm(*(coeff.denominator for coeff in coeffs))
    total = sum(
        coeff.numerator * (den // coeff.denominator) * involutions(n - j)
        for j, coeff in enumerate(coeffs)
    )
    return exact_div(total, den, "N(%d; %s) expansion", n, alpha)


def N_binomial(n_plus_k: int, alpha: Partition) -> int:
    """N(n+k; alpha) = sum_j C(n,j) (sum over mu of f^(alpha/mu)) t_{n-j}.

    The inner sums, one per weight |mu| = k - j, all come from one walk down
    Young's lattice from alpha to the empty shape: ``path_totals(alpha, ())``
    has at index j the paths from alpha down to every mu of weight k - j,
    that is the sum of f^(alpha/mu) over them.
    """
    alpha = validate_partition(alpha)
    if n_plus_k < 0:
        raise DomainError("n must be nonnegative")
    totals = path_totals(alpha, ())
    k = len(totals) - 1
    if n_plus_k < k:
        return 0
    n = n_plus_k - k
    return sum(comb(n, j) * totals[j] * involutions(n - j) for j in range(k + 1))


def routes() -> dict[str, Callable[[int, Partition], int]]:
    """The N(n; alpha) routes by name, in the order ``--method all`` runs them.

    Built on every call, so a route rebound on this module is what runs.
    """
    return {"direct": N_direct, "expansion": N_expansion, "binomial": N_binomial}


def N_closed_form(n: int, alpha: Partition) -> int:
    """Golden closed form for |alpha| <= 5; zero for 0 <= n < |alpha|."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if alpha not in CLOSED_FORMS:
        raise ValueError(f"no closed form on record for {alpha}")
    if n < sum(alpha):
        return 0
    den, numerators = CLOSED_FORMS[alpha]
    total = sum(num * involutions(n - shift) for shift, num in numerators.items())
    return exact_div(total, den, "closed form for N(%d; %s)", n, alpha)


def containment_probability(n: int, alpha: Partition) -> Fraction:
    """Probability that a uniform n-cell SYT contains a fixed tableau of shape alpha."""
    return Fraction(N_expansion(n, alpha), involutions(n))


def N_row(n_plus_k: int, k: int) -> int:
    """Single-row count N(n+k; k), evaluated by both stated forms.

    The binomial form sum_j C(n,j) t_{n-j} and the q-weighted form
    sum_j q_j/(k-j)! t_{n+k-j} must agree exactly; a mismatch means a bug.
    """
    if not 0 <= k <= n_plus_k:
        raise DomainError("need n_plus_k >= k >= 0")
    n = n_plus_k - k
    binomial_form = sum(comb(n, j) * involutions(n - j) for j in range(k + 1))
    q_form = sum(
        (q_coeff(j) / factorial(k - j)) * involutions(n_plus_k - j)
        for j in range(k + 1)
    )
    if q_form != binomial_form:
        raise IntegralityError(
            f"single-row forms disagree at N({n_plus_k}; {k}): "
            f"{binomial_form} vs {q_form}"
        )
    return binomial_form


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
