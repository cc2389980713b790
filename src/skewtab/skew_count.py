"""Skew-shape SYT counts by three mutually independent methods.

* ``skew_syt_brute``  -- growth paths between the inner and outer shape,
  counted by one level-by-level walk down Young's lattice (``path_totals``),
* ``skew_syt_det``    -- the classical factorial determinant on the beta-set
  falling-factorial matrix, whose Vandermonde block is divided out by
  Newton differences so that only a len(inner) x len(inner) determinant is
  eliminated,
* ``skew_syt_char``   -- a character sum over classes of the inner weight.

The three agree on every valid input; the test suite asserts this.  No
layer picks among them: ``containment.N_direct`` and ``asym vk`` call
``skew_syt_det`` directly, and the CLI's ``skew`` runs the routes its
``--method`` names.  ``routes()`` is the one list of them, by name, in
the order the CLI's ``--method all`` runs them.  ``skew_syt_det`` never
conjugates, so comparing it with its value on the conjugate shape
compares two computations.

All three routes take one input form: a ``SkewShape`` or a plain
``(outer, inner)`` pair that is already valid, that is, two partitions of
weakly decreasing positive parts with the inner inside the outer.  The
routes trust that contract and build no ``SkewShape``, so a caller that
builds its own valid pairs (``containment.N_direct``, ``asym vk``) pays
for no validation per pair; ``SkewShape`` is how to check a pair that
comes from outside.

``skew_syt_det`` keeps Aitken's beta-set matrix but never eliminates its
Vandermonde block.  With ell = len(outer), k = len(inner) and m = ell - k,
m levels of Newton divided differences on the k inner columns alone divide
out the m falling-factorial columns.  Every quotient is exact, since the
nodes are distinct integers and the entries integer polynomials in them.
The node differences multiply to a known scale, and one k x k determinant
is left for ``integer_det``: about k*m*ell + k**3 big-integer steps rather
than ell**3.

``path_totals(top, floor)`` is the walk.  It keeps each shape as its beta
set in bits (James-Kerber's abacus), so removing a corner is one integer
subtraction, and returns only the number of paths per weight: the brute
route reads the last entry and ``containment.N_binomial`` all of them.  Its
mask builder ``_beads`` is its own, not the beta sets of ``characters``, so
the brute and char routes stay independent.  Past BRUTE_FORCE_CELL_CAP
cells the brute route raises CapacityError.
"""

from __future__ import annotations

from collections.abc import Callable
from math import factorial, perm, prod

from .characters import character, character_column
from .exact import exact_div, integer_det
from .partitions import (
    InvalidSkewShapeError,
    Partition,
    SkewShape,  # callers may build the input form as skew_count.SkewShape
    centralizer_order,
    contains,
    partitions_of,
)

BRUTE_FORCE_CELL_CAP = 25

SkewPair = tuple[Partition, Partition]  # (outer, inner), already valid


class CapacityError(ValueError):
    """A route was asked for an input past its documented capacity limit."""


def _beads(shape: Partition, ell: int) -> int:
    """The beads of ``shape``'s rows on an abacus of ``ell`` rows, as one int.

    Row i sets bit ``shape[i] + ell - 1 - i``; rows past ``len(shape)`` are
    left out.
    """
    mask = 0
    for i, row in enumerate(shape):
        mask |= 1 << (row + ell - 1 - i)
    return mask


def path_totals(top: Partition, floor: Partition) -> list[int]:
    """Growth paths down Young's lattice from ``top``, one total per weight.

    Entry m is the number of saturated chains from ``top`` down to the
    shapes of weight ``|top| - m`` that contain ``floor``, for m from 0 to
    ``|top| - |floor|``; the last entry is f^(top/floor), since ``floor``
    is the only such shape of its own weight.  Each shape is its beta set
    in bits (``_beads`` with ``ell = len(top)``; a row that empties keeps
    its bead at the bottom).  A corner is a bead at p > 0 with no bead at
    p - 1, and removing it is ``beads - (1 << (p - 1))``.  A move of row
    i is refused only when it would take row i below ``floor[i]``: the
    floor has a bead at p, and as many beads from p up as the shape.  The
    walk goes one level per weight, without recursion.  Both arguments must
    already be valid partitions; InvalidSkewShapeError when ``floor`` does
    not fit inside ``top``.
    """
    if not contains(top, floor):
        raise InvalidSkewShapeError(f"{floor} is not contained in {top}")
    ell = len(top)
    guard = _beads(floor, ell)  # a zero row never moves, so it needs no bead
    level = {_beads(top, ell): 1}
    totals = [1]
    for _ in range(sum(top) - sum(floor)):
        below: dict[int, int] = {}
        get = below.get
        for beads, paths in level.items():
            movable = beads & ~(beads << 1) & ~1
            while movable:
                low = movable & -movable
                movable ^= low
                if low & guard and (beads & -low).bit_count() == (guard & -low).bit_count():
                    continue  # row would drop below floor
                lower = beads - (low >> 1)
                below[lower] = get(lower, 0) + paths
        level = below
        totals.append(sum(below.values()))
    return totals


def skew_syt_brute(shape: SkewPair) -> int:
    """Count skew SYT as growth paths from the inner to the outer shape.

    The last of ``path_totals(outer, inner)``.  Raises CapacityError past
    BRUTE_FORCE_CELL_CAP cells; use the determinant or character method
    beyond that.
    """
    outer, inner = shape
    if sum(outer) - sum(inner) > BRUTE_FORCE_CELL_CAP:
        raise CapacityError(
            f"brute-force enumeration capped at {BRUTE_FORCE_CELL_CAP} cells; "
            "use skew_syt_det or skew_syt_char"
        )
    return path_totals(outer, inner)[-1]


def skew_syt_det(shape: SkewPair) -> int:
    """Count skew SYT via the factorial determinant.

    Aitken: f^(lam/alpha) = n! det[1/(lam_i - alpha_j - i + j)!], with
    1/m! = 0 for m < 0.  In the beta sets a_i = lam_i + ell - 1 - i and
    b_j = alpha_j + ell - 1 - j, with alpha padded by zeros to ell rows,
    that exponent is a_i - b_j, so scaling row i by a_i! makes entry (i, j)
    the falling factorial perm(a_i, b_j), a polynomial of degree b_j in a_i
    (0 when b_j > a_i).  Both axes run in ascending beta order, which keeps
    the determinant and its sign.  With k = len(alpha) and m = ell - k, the
    first m columns are then the falling factorials (a)_0, ..., (a)_(m-1):
    a Vandermonde block, eliminated in closed form by Newton's divided
    differences.  Level r = 1..m keeps the first of the ell - r + 1 rows
    left and replaces the rest by (row_(i+1) - row_i) / (a_(i+r) - a_i) for
    i < ell - r.  That triangular row operation turns column r - 1, which is
    1 on every row left (the leading coefficient of (a)_(r-1)), into
    1, 0, ..., 0, and expanding along it drops the kept row.  So the
    determinant is the scale prod_(r=1..m) prod_(i<ell-r) (a_(i+r) - a_i)
    times the k x k determinant of the m-th divided differences of the k
    inner columns, and only that one goes to ``integer_det``.  Each ``//``
    is exact: the nodes are distinct integers and perm(x, b) has integer
    coefficients in x, so every divided difference is an integer, just as
    each Bareiss quotient is.  The cost is about k*m*ell + k**3 big-integer
    steps instead of ell**3.  The final division by prod(a_i!) is checked
    by ``exact_div``.
    """
    lam, alpha = shape
    ell = len(lam)
    m = ell - len(alpha)
    a = [p + i for i, p in enumerate(reversed(lam))]
    scale = prod(a[i + r] - a[i] for r in range(1, m + 1) for i in range(ell - r))
    columns = []
    for j, p in enumerate(reversed(alpha)):
        column = [perm(ai, p + m + j) for ai in a]
        for r in range(1, m + 1):
            column = [(column[i + 1] - column[i]) // (a[i + r] - a[i]) for i in range(ell - r)]
        columns.append(column)
    # det is invariant under transposition, so the columns go in as rows
    numerator = factorial(sum(lam) - sum(alpha)) * scale * integer_det(columns)
    return exact_div(numerator, prod(map(factorial, a)), "determinant count for %s/%s", lam, alpha)


def skew_syt_char(shape: SkewPair) -> int:
    """Count skew SYT as sum over nu of chi^lam(nu, 1^(n-k)) chi^alpha(nu) / z_nu.

    The classes nu are the partitions of k = |alpha|.  The column
    chi^lam(nu, 1^(n-k)) comes from one ``character_column`` call, which
    strips each shared prefix of the nu once; each chi^alpha(nu) is a
    character on a class of alpha's own weight.  Scaled by k!, each term is
    an integer, since k!/z_nu is the size of the class nu; the one division
    by k! is checked.
    """
    lam, alpha = shape
    k = sum(alpha)
    classes = list(partitions_of(k))
    k_factorial = factorial(k)
    total = sum(
        chi_lam * character(alpha, nu) * (k_factorial // centralizer_order(nu))
        for nu, chi_lam in zip(classes, character_column(lam, classes))
    )
    return exact_div(total, k_factorial, "character count for %s/%s", lam, alpha)


def routes() -> dict[str, Callable[[SkewPair], int]]:
    """The skew routes by name, in the order ``--method all`` runs them.

    Built on every call, so a route rebound on this module is what runs.
    """
    return {"brute": skew_syt_brute, "det": skew_syt_det, "char": skew_syt_char}
