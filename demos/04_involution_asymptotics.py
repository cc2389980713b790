#!/usr/bin/env python3
"""Involution numbers: the Moser-Wyman expansion against exact values.

t_n, the number of involutions in the degree-n symmetric group, is also the
total number of SYT with n cells.  Its asymptotic expansion

    t_n ~ (1/sqrt 2) n^(n/2) exp(-n/2 + sqrt n - 1/4)
          (1 + 7/(24 sqrt n) - 119/(1152 n) + ...)

is evaluated here in log-domain floating point and compared against the
exact recurrence t_n = t_{n-1} + (n-1) t_{n-2}.  The same estimator,
given a shift j, estimates t_{n-j} with everything still written in terms
of n, which is what a term-by-term estimate of N(n; alpha) needs.
"""

from skewtab import (
    containment_probability,
    containment_probability_estimate,
    involutions,
    mw_log_involutions_estimate,
    relative_error,
)

print(__doc__)

print("relative error of the truncated expansion:")
print("n        order 0      order 1      order 2")
for n in (10, 20, 50, 100, 200, 400):
    errs = [
        relative_error(mw_log_involutions_estimate(n, order), involutions(n))
        for order in (0, 1, 2)
    ]
    print(f"{n:<7d}" + "".join(f"{e:>13.3e}" for e in errs))
print()

print("shifted estimates of t_{n-j} at n = 400:")
print("j     estimate/exact - 1")
for j in (0, 1, 2, 3, 5, 8):
    err = relative_error(mw_log_involutions_estimate(400, 2, j), involutions(400 - j))
    print(f"{j:<5d} {err:>12.3e}")
print()

print("containment probability P(n; alpha) vs its three-term estimate:")
print("alpha    n      exact         estimate      residual")
for alpha in [(2, 1), (3,), (2, 2)]:
    for n in (20, 40, 60):
        exact = float(containment_probability(n, alpha))
        est = containment_probability_estimate(n, alpha)
        print(f"{str(alpha):8s} {n:<6d} {exact:<13.9f} {est:<13.9f} {exact - est:>10.2e}")
