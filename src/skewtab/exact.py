"""Exact-arithmetic helpers shared by the counting modules.

Every formula in this package is evaluated in integers or rationals; any
division that is supposed to cancel is checked, never assumed.  A failed
check raises IntegralityError, which the CLI maps to its own exit code.
"""

from __future__ import annotations

from fractions import Fraction


class IntegralityError(ArithmeticError):
    """An exact computation produced a non-integer or failed a cross-check."""


def as_integer(value: Fraction | int, context: str) -> int:
    """Assert that an exact rational is a count, a nonnegative integer, and return it."""
    if value.denominator != 1:
        raise IntegralityError(f"{context}: expected an integer, got {value}")
    if value < 0:
        raise IntegralityError(f"{context}: expected a nonnegative count, got {value}")
    return value.numerator


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
