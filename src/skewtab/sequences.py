"""Scalar sequences consumed by the counting formulas.

Four memoized families live here:

* ``involutions(n)`` -- t_n, the involution numbers (total SYT with n cells),
* ``q_coeff(j)``     -- coefficients q_j = d_j / j! of exp(-x - x**2/2) / (1 - x),
  where d_j counts degree-j permutations with every cycle of length >= 3,
* ``b_stable(n)``    -- coefficients of the EGF exp(u**2/2 + 2u); the stable
  value of the single-row containment count once the row is long enough,
* ``a_poly(n)``      -- integer polynomials with A_0 = 1 and
  A_{n+1} = A_n' + (x+1) A_n, the numerators of the single-row generating
  functions sum_k N(n+k; k) x**k = A_n(x) / (1-x).

Each family is an integer recurrence over a module-level list that only
ever grows, and ``_grow`` is the one place a list is extended; a cached
value is a plain list index.  Appends are GIL-serialized, so concurrent
readers are safe in CPython.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import factorial

_t: list[int] = [1, 1]
_d: list[int] = [1, 0, 0]  # d_j = j! q_j
_b: list[int] = [1, 2]
_a: list[tuple[int, ...]] = [(1,)]


def _grow(table: list, n: int, step: Callable[[list, int], object]):
    """Append ``step(table, m)`` for m = len(table), ... until table[n] exists."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    while len(table) <= n:
        table.append(step(table, len(table)))
    return table[n]


def involutions(n: int) -> int:
    """Number of involutions t_n in the degree-n symmetric group.

    Negative indices return 0, which makes shifted sums t_{n-j} total.
    """
    if n < 0:
        return 0
    if n < len(_t):
        return _t[n]
    return _grow(_t, n, lambda t, m: t[m - 1] + (m - 1) * t[m - 2])


def q_coeff(j: int) -> Fraction:
    """Coefficient of x**j in exp(-x - x**2/2) / (1 - x), exact.

    j! q_j = d_j counts the permutations with no cycle shorter than 3, and
    d_j = (j-1) (d_{j-1} + (j-2) d_{j-3}).
    """
    if not 0 <= j < len(_d):
        _grow(_d, j, lambda d, m: (m - 1) * (d[m - 1] + (m - 2) * d[m - 3]))
    return Fraction(_d[j], factorial(j))


def b_stable(n: int) -> int:
    """Coefficient b_n of u**n/n! in exp(u**2/2 + 2u).

    Satisfies b_{n+1} = 2 b_n + n b_{n-1}; equals the count of (n+k)-cell
    SYT containing a fixed single-row k-cell tableau whenever n <= k.
    """
    if 0 <= n < len(_b):
        return _b[n]
    return _grow(_b, n, lambda b, m: 2 * b[m - 1] + (m - 1) * b[m - 2])


def _next_a(a: list[tuple[int, ...]], m: int) -> tuple[int, ...]:
    # coefficient i of A_m is (i+1) c_{i+1} + c_i + c_{i-1} over A_{m-1} = sum c_i x**i
    c = (0, *a[m - 1], 0, 0)  # c_i sits at c[i + 1]
    return tuple((i + 1) * c[i + 2] + c[i + 1] + c[i] for i in range(m + 1))


def a_poly(n: int) -> tuple[int, ...]:
    """Coefficients (constant term first) of the n-th generating polynomial.

    A_0 = 1 and A_{n+1} = A_n' + (x+1) A_n, so A_n is monic of degree n.
    """
    if 0 <= n < len(_a):
        return _a[n]
    return _grow(_a, n, _next_a)
