"""Skew-shape SYT counts by three mutually independent methods.

* ``skew_syt_brute``  -- growth paths between the inner and outer shape,
  counted by one level-by-level walk down Young's lattice (``walk_down``),
* ``skew_syt_det``    -- the classical factorial determinant, built as the
  beta-set falling-factorial matrix and eliminated from its low-degree
  corner,
* ``skew_syt_char``   -- a character sum over classes of the inner weight.

The three agree on every valid input; the test suite asserts this, and
higher layers pick whichever is cheapest for their regime.  ``routes()`` is
the one list of them, by name, in the order the CLI's ``--method all`` runs
them.  ``skew_syt_det`` never conjugates, so comparing it with its value on
the conjugate shape compares two computations.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from math import factorial, perm, prod

from .characters import character, character_column
from .exact import exact_div, integer_det
from .partitions import Partition, SkewShape, centralizer_order, partitions_of

BRUTE_FORCE_CELL_CAP = 25


def walk_down(top: Partition, floor: Partition) -> Iterator[dict[Partition, int]]:
    """Walk down Young's lattice from ``top`` to the weight of ``floor``.

    Yields one level per weight, from ``|top|`` down to ``|floor|``: each
    maps a shape to its number of saturated chains (growth paths) up to
    ``top``.  A level removes one corner cell from every shape of the level
    above and keeps only the shapes that still contain ``floor``.  No
    recursion, so the stack depth does not grow with the number of cells.
    Both arguments must already be valid partitions.
    """
    level = {top: 1}
    yield level
    reach = len(floor)
    for _ in range(sum(top) - sum(floor)):
        below: dict[Partition, int] = {}
        for shape, paths in level.items():
            last = len(shape) - 1
            for i, row in enumerate(shape):
                if i < last and row == shape[i + 1]:
                    continue  # not a corner
                if i < reach and row == floor[i]:
                    continue  # the lower shape would not contain floor
                if row > 1:
                    lower = shape[:i] + (row - 1,) + shape[i + 1 :]
                else:  # a row of 1 is a corner only as the last row
                    lower = shape[:i]
                below[lower] = below.get(lower, 0) + paths
        level = below
        yield level


def skew_syt_brute(shape: SkewShape) -> int:
    """Count skew SYT as growth paths from the inner to the outer shape.

    The count at ``inner`` after walking down from ``outer``.  Capped at
    BRUTE_FORCE_CELL_CAP cells; use the determinant or character method
    beyond that.
    """
    if shape.size > BRUTE_FORCE_CELL_CAP:
        raise ValueError(
            f"brute-force enumeration capped at {BRUTE_FORCE_CELL_CAP} cells; "
            "use skew_syt_det or skew_syt_char"
        )
    for level in walk_down(shape.outer, shape.inner):
        pass
    return level[shape.inner]


def skew_syt_det(shape: SkewShape) -> int:
    """Count skew SYT via the factorial determinant.

    Aitken: f^(lam/alpha) = n! det[1/(lam_i - alpha_j - i + j)!], with
    1/m! = 0 for m < 0.  In the beta sets a_i = lam_i + ell - 1 - i and
    b_j = alpha_j + ell - 1 - j that exponent is a_i - b_j, so scaling row i
    by a_i! makes entry (i, j) the falling factorial perm(a_i, b_j), which
    is 0 when b_j > a_i.  Column j holds a polynomial of degree b_j in a_i.
    Rows and columns run in ascending beta order, the reverse of both axes,
    which leaves the determinant and its sign unchanged: Bareiss then
    eliminates the columns of lowest degree first (1, a_i, ... when alpha
    is shorter than lam), so its intermediate minors stay Vandermonde-sized
    instead of carrying the largest falling factorials through every step.
    The final division by prod(a_i!) is checked by ``exact_div``.
    """
    lam, alpha = shape.outer, shape.inner
    padded = alpha + (0,) * (len(lam) - len(alpha))
    a = [p + i for i, p in enumerate(reversed(lam))]
    b = [p + j for j, p in enumerate(reversed(padded))]
    numerator = factorial(shape.size) * integer_det([[perm(ai, bj) for bj in b] for ai in a])
    return exact_div(numerator, prod(map(factorial, a)), "determinant count for %s/%s", lam, alpha)


def skew_syt_char(shape: SkewShape) -> int:
    """Count skew SYT as sum over nu of chi^lam(nu, 1^(n-k)) chi^alpha(nu) / z_nu.

    The classes nu are the partitions of k = |alpha|.  The column
    chi^lam(nu, 1^(n-k)) comes from one ``character_column`` call, which
    strips each shared prefix of the nu once; each chi^alpha(nu) is a
    character on a class of alpha's own weight.  Scaled by k!, each term is
    an integer, since k!/z_nu is the size of the class nu; the one division
    by k! is checked.
    """
    lam, alpha = shape.outer, shape.inner
    k = sum(alpha)
    classes = list(partitions_of(k))
    k_factorial = factorial(k)
    total = sum(
        chi_lam * character(alpha, nu) * (k_factorial // centralizer_order(nu))
        for nu, chi_lam in zip(classes, character_column(lam, classes))
    )
    return exact_div(total, k_factorial, "character count for %s/%s", lam, alpha)


def routes() -> dict[str, Callable[[SkewShape], int]]:
    """The skew routes by name, in the order ``--method all`` runs them.

    Built on every call, so a route rebound on this module is what runs.
    """
    return {"brute": skew_syt_brute, "det": skew_syt_det, "char": skew_syt_char}
