"""Scalar sequences consumed by the counting formulas.

Four integer recurrences live here:

* ``involutions(n)`` -- t_n, the involution numbers (total SYT with n cells),
* ``q_coeff(j)``     -- coefficients q_j = d_j / j! of exp(-x - x**2/2) / (1 - x),
  where d_j counts degree-j permutations with every cycle of length >= 3,
* ``b_stable(n)``    -- coefficients of the EGF exp(u**2/2 + 2u); the stable
  value of the single-row containment count once the row is long enough,
* ``a_poly(n)``      -- integer polynomials with A_0 = 1 and
  A_{n+1} = A_n' + (x+1) A_n, the numerators of the single-row generating
  functions sum_k N(n+k; k) x**k = A_n(x) / (1-x).

Only t_n is memoized: the shifted sums of the containment routes read it
at every index up to n, so ``_t`` is a module-level list that only ever
grows (appends are GIL-serialized, so concurrent readers are safe in
CPython).  The other three run their recurrence from the base cases on
each call.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exact import DomainError

_t: list[int] = [1, 1]


def involutions(n: int) -> int:
    """Number of involutions t_n in the degree-n symmetric group.

    Negative indices return 0, which makes shifted sums t_{n-j} total.
    """
    if n < 0:
        return 0
    while len(_t) <= n:
        m = len(_t)
        _t.append(_t[m - 1] + (m - 1) * _t[m - 2])
    return _t[n]


def q_coeff(j: int) -> Fraction:
    """Coefficient of x**j in exp(-x - x**2/2) / (1 - x), exact.

    j! q_j = d_j counts the permutations with no cycle shorter than 3, and
    d_j = (j-1) (d_{j-1} + (j-2) d_{j-3}).
    """
    if j < 0:
        raise DomainError("index must be nonnegative")
    d = [1, 0, 0]
    for m in range(3, j + 1):
        d.append((m - 1) * (d[m - 1] + (m - 2) * d[m - 3]))
    return Fraction(d[j], factorial(j))


def b_stable(n: int) -> int:
    """Coefficient b_n of u**n/n! in exp(u**2/2 + 2u).

    Satisfies b_{n+1} = 2 b_n + n b_{n-1}; equals the count of (n+k)-cell
    SYT containing a fixed single-row k-cell tableau whenever n <= k.
    """
    if n < 0:
        raise DomainError("index must be nonnegative")
    b = [1, 2]
    for m in range(2, n + 1):
        b.append(2 * b[m - 1] + (m - 1) * b[m - 2])
    return b[n]


def a_poly(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the n-th generating polynomial.

    A_0 = 1 and A_{n+1} = A_n' + (x+1) A_n, so A_n is monic of degree n.
    """
    if n < 0:
        raise DomainError("index must be nonnegative")
    a: tuple[int, ...] = (1,)
    for m in range(1, n + 1):
        # coefficient i of A_m is (i+1) c_{i+1} + c_i + c_{i-1} over A_{m-1} = sum c_i x**i
        c = (0, *a, 0, 0)  # c_i sits at c[i + 1]
        a = tuple((i + 1) * c[i + 2] + c[i + 1] + c[i] for i in range(m + 1))
    return a
