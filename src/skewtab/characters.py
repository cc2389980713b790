"""Irreducible symmetric-group characters and straight-shape SYT counts.

Shapes are handled as beta sets: a partition lam of length ell is the
strictly decreasing tuple of first-column hook lengths b_i = lam_i + ell - 1 - i.
Every count here finishes on that tuple with Frobenius' formula
f^shape = m! prod_{i<j} (b_i - b_j) / prod_i b_i!, one checked ``exact_div``
per shape (``_frobenius``), so the module has one f^shape formula and one
path to it: ``syt_count(lam)`` is chi^lam on the identity class,
``_column(lam, [()])``, which strips nothing and finishes at once.

``character`` and ``character_column`` apply the border-strip
(Murnaghan-Nakayama) rule layer by layer, with no recursion.  A layer maps
beta tuples, all of the starting length ell, to signed coefficients.  For
each part r >= 2 of the class, every border strip of size r is removed from
every shape in the layer: one beta value moves down by r into a free slot,
with sign (-1)**(number of occupied slots jumped over).  Shapes reached
twice merge and zero coefficients drop out.  The 1s of the class are left
for last: chi^shape(1^m) = f^shape, so the character is the sum of
coefficient times Frobenius' count.  A shape longer than it is wide starts
from its conjugate with the sign of the class, chi^lam(mu) = sgn(mu)
chi^lam'(mu), so the beta sets stay as short as the shorter of the two.
``character_column`` strips each distinct prefix of its classes' non-1
parts once.  Python recursion depth does not depend on the weight or the
class.

Memo policy: only ``syt_count`` is memoized, with an uncapped ``lru_cache``
(thread-safe; at worst two threads compute the same deterministic value).
The character layers are rebuilt on each call and read no table.
``clear_character_cache()`` empties ``syt_count``'s table.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations, starmap
from math import factorial, prod
from operator import sub

from .exact import exact_div
from .partitions import Partition, conjugate, validate_partition

Beta = tuple[int, ...]


def _beta(lam: Partition) -> Beta:
    ell = len(lam)
    return tuple(p + ell - 1 - i for i, p in enumerate(lam))


def _frobenius(beta: Beta, m_factorial: int) -> int:
    """f^shape of the beta set ``beta``, given m! for its weight m."""
    vandermonde = prod(starmap(sub, combinations(beta, 2)))
    return exact_div(
        m_factorial * vandermonde, prod(map(factorial, beta)), "Frobenius count for beta set %s", beta
    )


@lru_cache(maxsize=None)
def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux of straight shape lam: chi^lam(1^n) (Frobenius).

    Raises ValueError when lam is not a partition, as ``character`` does.
    """
    return _column(validate_partition(lam), [()])[0]


def _strip_layer(layer: dict[Beta, int], r: int) -> dict[Beta, int]:
    """Remove every border strip of size r from every shape in layer."""
    out: dict[Beta, int] = {}
    for beta, coeff in layer.items():
        ell = len(beta)
        for i, b in enumerate(beta):
            nb = b - r
            if nb < 0:
                break  # beta decreases: no later value can move down by r
            if nb in beta:
                continue
            j = i + 1
            while j < ell and beta[j] > nb:
                j += 1
            # b jumps the j - i - 1 occupied slots beta[i+1:j]
            shape = beta[:i] + beta[i + 1 : j] + (nb,) + beta[j:]
            out[shape] = out.get(shape, 0) + (coeff if (j - i) % 2 else -coeff)
    return {shape: c for shape, c in out.items() if c}


def _column(lam: Partition, strips: list[Partition]) -> list[int]:
    """chi^lam on the classes whose parts >= 2 are ``strips``; inputs already valid."""
    n = sum(lam)
    if lam and len(lam) > lam[0]:
        # chi^lam(mu) = sgn(mu) chi^lam'(mu): strip the shorter conjugate
        start, tall = _beta(conjugate(lam)), True
    else:
        start, tall = _beta(lam), False
    column = [0] * len(strips)
    chain: list[dict[Beta, int]] = [{start: 1}]  # chain[s]: layer after the first s strips
    done: Partition = ()
    for index in sorted(range(len(strips)), key=strips.__getitem__):
        parts = strips[index]
        shared = 0
        while shared < min(len(done), len(parts)) and done[shared] == parts[shared]:
            shared += 1
        del chain[shared + 1 :]
        for r in parts[shared:]:
            chain.append(_strip_layer(chain[-1], r))
        done = parts
        m_factorial = factorial(n - sum(parts))
        value = sum(c * _frobenius(beta, m_factorial) for beta, c in chain[-1].items())
        column[index] = -value if tall and (sum(parts) - len(parts)) % 2 else value
    return column


def character_column(lam: Partition, classes: Iterable[Partition]) -> list[int]:
    """chi^lam(nu, 1^(|lam| - |nu|)) for each class nu in ``classes``, in order.

    Each nu must be a partition of at most |lam| cells; ValueError otherwise.
    The classes are taken in lexicographic order of their parts >= 2, so
    every distinct prefix of those parts is stripped once, whatever order
    the classes come in.
    """
    lam = validate_partition(lam)
    n = sum(lam)
    strips = []
    for nu in classes:
        nu = validate_partition(nu)
        if sum(nu) > n:
            raise ValueError(f"invalid character key: |{nu}| > |{lam}|")
        strips.append(tuple(r for r in nu if r != 1))
    return _column(lam, strips)


def character(lam: Partition, mu: Partition) -> int:
    """Character of the irreducible indexed by lam on the class of type mu.

    Both must be partitions of the same weight; ValueError otherwise.
    """
    lam, mu = validate_partition(lam), validate_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"invalid character key: |{lam}| != |{mu}|")
    return _column(lam, [tuple(r for r in mu if r != 1)])[0]


def clear_character_cache() -> None:
    """Empty the ``syt_count`` table, the one table in this module."""
    syt_count.cache_clear()
