#!/usr/bin/env python3
"""Skew counts for large shapes: growth regimes and exact limit values.

Two ways a shape lam with n cells can grow:

  * bulk regime: first part and length both near 2 sqrt(n).  Almost all SYT
    mass concentrates there, and f(lam/alpha)/f(lam) tends to f^alpha/k!
    independent of the shape details.
  * TVK regime: row frequencies lam_i/n -> a_i and column frequencies
    lam'_i/n -> b_i with sum(a) + sum(b) = 1.  Then f(lam/alpha)/f(lam)
    tends to the super-Schur value s_alpha(a / -b), computed here exactly
    as the Jacobi-Trudi determinant det[h_{alpha_i - i + j}].

The two-row family lam = (m, m) realizes (a; b) = ((1/2, 1/2); ()) and its
ratio admits an exact closed form, so the convergence is fully visible.
"""

from fractions import Fraction

from skewtab import (
    LimitSpec,
    SkewShape,
    biane_estimate,
    bulk_mass,
    conjugate,
    skew_syt_det,
    super_schur_value,
    syt_count,
    tvk_skew_estimate,
)


def rectangle_factorization(i, j, mu, nu, a, b):
    """alpha = (i x j rectangle) + mu on the right + nu' below, and
    s_alpha(a / -b) as s_mu(a) s_nu(b) prod (a_r + b_s)."""
    padded_mu = mu + (0,) * (i - len(mu))
    alpha = tuple(p for p in [part + j for part in padded_mu] + list(conjugate(nu)) if p > 0)
    value = super_schur_value(mu, a, ()) * super_schur_value(nu, b, ())
    for ar in a:
        for bs in b:
            value *= ar + bs
    return alpha, value


print(__doc__)

print("bulk mass: exact share of n-cell SYT whose shape sits in the window")
print("(2 - eps) sqrt(n) < first part, length < (2 + eps) sqrt(n)")
print("n     eps=1/4      eps=1/2      eps=1")
for n in (16, 25, 36):
    masses = [bulk_mass(n, eps) for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(1))]
    print(f"{n:<5d}" + "".join(f" {float(m):<12.6f}" for m in masses))
print()

print("two-row TVK law: lam = (m, m), alpha = (2), limit s_(2)(1/2,1/2) = 3/4")
limit = super_schur_value((2,), (Fraction(1, 2), Fraction(1, 2)), ())
print("m      exact ratio           deviation from 3/4")
for m in (5, 10, 40, 160):
    ratio = Fraction(skew_syt_det(SkewShape((m, m), (2,))), syt_count((m, m)))
    print(f"{m:<6d} {str(ratio):<21s} {float(limit - ratio):.6f} "
          f"(= 3/(4(2m-1)) = {float(Fraction(3, 4 * (2 * m - 1))):.6f})")
print()

spec = LimitSpec(a=(Fraction(1, 2), Fraction(1, 2)))
m = 60
f_lam = syt_count((m, m))
print(f"tvk_skew_estimate at m={m}: {tvk_skew_estimate(f_lam, (2,), spec):.4e} "
      f"vs exact {skew_syt_det(SkewShape((m, m), (2,)))}")
print()

print("rectangle factorization: when alpha is an i x j rectangle with mu on")
print("the right and nu' below, s_alpha(a/-b) factors into Schur values and")
print("a product over the rectangle:")
for i, j, mu, nu in [(1, 1, (), ()), (2, 2, (), ()), (2, 1, (1,), (2,))]:
    a = tuple(Fraction(1, 2 + r) for r in range(i))
    b = tuple(Fraction(1, 3 + s) for s in range(j))
    alpha, value = rectangle_factorization(i, j, mu, nu, a, b)
    direct = super_schur_value(alpha, a, b)
    assert value == direct
    print(f"  i={i} j={j} mu={mu} nu={nu}: alpha={alpha}, value={value} (matches)")
print()

print("near-staircase shapes: the leading term f(lam) f^alpha / k! already")
print("captures the skew count within a few percent per extra cell:")
for rows in (9, 12):
    lam = tuple(range(rows, 0, -1))
    n = sum(lam)
    exact = skew_syt_det(SkewShape(lam, (2,)))
    lead = biane_estimate(syt_count(lam), n, (2,), 0.0)
    print(f"  staircase {rows} rows (n={n}): exact/leading = {exact / lead:.4f}")
