#!/usr/bin/env python3
"""Single-row containment counts and their generating machinery.

When the fixed subtableau is a single row of k cells, the counts N(n+k; k)
have unusually clean structure:

  * two closed forms (a binomial convolution of involution numbers and a
    q-weighted sum) that must agree term by term,
  * a rational generating function sum_k N(n+k; k) x^k = A_n(x) / (1-x)
    with integer polynomials A_n,
  * stability: once k >= n the count freezes at b_n, the coefficients of
    exp(u^2/2 + 2u).
"""

from itertools import accumulate
from math import factorial

from skewtab import N_row, a_poly, b_stable, involutions, q_coeff


def q_weighted_row(n_plus_k, k):
    """N(n+k; k) as sum_j q_j/(k-j)! t_{n+k-j}; N_row is the binomial form."""
    return sum(q_coeff(j) / factorial(k - j) * involutions(n_plus_k - j) for j in range(k + 1))


def stability_check(k):
    """True iff N(n+k; k) has frozen at b_n for every n <= k."""
    return all(N_row(n + k, k) == b_stable(n) for n in range(k + 1))


def generating_poly_check(n, max_k):
    """True iff sum_k N(n+k; k) x^k matches A_n(x) / (1-x) up to x^max_k."""
    partial_sums = list(accumulate(a_poly(n)))
    return all(N_row(n + k, k) == partial_sums[min(k, n)] for k in range(max_k + 1))


print(__doc__)

print("N(n+k; k) for small n (rows) and k (columns):")
print("n\\k " + "".join(f"{k:>7d}" for k in range(9)))
for n in range(7):
    row = [N_row(n + k, k) for k in range(9)]
    assert row == [q_weighted_row(n + k, k) for k in range(9)]  # the two forms agree
    print(f"{n:<4d}" + "".join(f"{v:>7d}" for v in row))
print()
print("each row freezes at b_n once k >= n:", [b_stable(n) for n in range(7)])
print("stability_check(k) for k <= 8:", all(stability_check(k) for k in range(9)))
print()

print("generating polynomials A_n (constant term first):")
for n in range(6):
    print(f"  A_{n} = {a_poly(n)}  (coefficient sum {sum(a_poly(n))} = b_{n})")
print("generating_poly_check(n, 8) for n <= 6:",
      all(generating_poly_check(n, 8) for n in range(7)))
print()

print("q_j (coefficients of exp(-x - x^2/2)/(1-x)); j! q_j counts the")
print("degree-j permutations with every cycle of length >= 3:")
for j in range(9):
    scaled = q_coeff(j) * factorial(j)
    print(f"  q_{j} = {q_coeff(j)!s:>8s}   {j}! q_{j} = {scaled}")
