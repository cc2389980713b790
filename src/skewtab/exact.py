"""Exact-arithmetic helpers shared by the counting modules.

Every formula in this package is evaluated in integers or rationals; any
division that is supposed to cancel goes through ``exact_div``, the one
integrality check in the package.  A failed check raises IntegralityError,
which the CLI maps to its own exit code.  DomainError, raised wherever a
single well-formed number lies outside its function's domain (a negative
n, a window width of 0, an infinite or NaN float), has its own exit code
too.  ``exact_fraction`` converts a caller's number to a Fraction and
refuses an infinite or NaN one.
"""

from __future__ import annotations

from fractions import Fraction


class IntegralityError(ArithmeticError):
    """An exact computation produced a non-integer or failed a cross-check."""


class DomainError(ValueError):
    """A single, well-formed number lies outside its function's domain."""


def exact_fraction(value) -> Fraction:
    """``value`` as an exact Fraction; DomainError if it is infinite or NaN."""
    if value != value or value in (float("inf"), float("-inf")):  # NaN is unequal to itself
        raise DomainError(f"need a finite number, got {value}")
    return Fraction(value)


def exact_div(numerator: int, denominator: int, context: str, *args) -> int:
    """numerator / denominator as a count; IntegralityError if inexact or negative.

    The message, ``context % args``, is built only on failure and renders no operand.
    """
    count, rem = divmod(numerator, denominator)
    if rem:
        raise IntegralityError(f"{context % args}: expected an integer")
    if count < 0:
        raise IntegralityError(f"{context % args}: expected a nonnegative count")
    return count


def integer_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
