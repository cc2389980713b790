"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
two report-only tables.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from skewtab.asymptotics import (
    bulk_mass,
    containment_probability_estimate,
    mw_log_involutions_estimate,
    rectangle_factorization,
    relative_error,
    super_schur_value,
)
from skewtab.characters import character, syt_count
from skewtab.containment import (
    CLOSED_FORMS,
    N_binomial,
    N_closed_form,
    N_direct,
    N_expansion,
    N_row,
    containment_probability,
    generating_poly_check,
    stability_check,
    t_shift_coeff,
)
from skewtab.partitions import (
    SkewShape,
    centralizer_order,
    conjugate,
    contains,
    partitions_of,
)
from skewtab.sequences import involutions
from skewtab.skew_count import skew_syt_brute, skew_syt_char, skew_syt_det

from oracles import (
    bulk_members,
    character_oracle,
    schur_sum_identity_check,
    super_schur_power_sum,
    transposition_character,
)


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
        )
    print(f"PASS criterion {number:2d}: {description} ({elapsed:.1f}s)")


def random_fraction(rng):
    return Fraction(rng.randint(1, 9), rng.randint(10, 20))


def test_criterion_01_golden_table():
    with criterion(1, "closed forms match the expansion for |alpha| <= 5, n <= 15", 10):
        for alpha in CLOSED_FORMS:
            for n in range(sum(alpha), 16):
                assert N_closed_form(n, alpha) == N_expansion(n, alpha), (alpha, n)


def test_criterion_02_triple_method_agreement():
    with criterion(2, "direct = expansion = binomial for |alpha| <= 5, n <= 12", 60):
        for k in range(6):
            for alpha in partitions_of(k):
                for n in range(k, 13):
                    value = N_expansion(n, alpha)
                    assert value == N_direct(n, alpha), (alpha, n)
                    assert value == N_binomial(n, alpha), (alpha, n)


def test_criterion_03_skew_triple_agreement():
    with criterion(3, "brute = det = char on all pairs |lam| <= 10, |alpha| <= 4", 60):
        for n in range(11):
            for lam in partitions_of(n):
                for k in range(min(n, 4) + 1):
                    for alpha in partitions_of(k):
                        if not contains(lam, alpha):
                            continue
                        shape = SkewShape(lam, alpha)
                        value = skew_syt_det(shape)
                        assert value == skew_syt_brute(shape), shape
                        assert value == skew_syt_char(shape), shape


def test_criterion_04_rsk_mass_identity():
    with criterion(4, "sum of f^lam over lam of n cells equals t_n for n <= 25", 10):
        for n in range(26):
            assert sum(syt_count(lam) for lam in partitions_of(n)) == involutions(n)


def test_criterion_05_character_correctness():
    with criterion(5, "recursion = oracle (wt <= 7), orthogonality, transposition form"):
        for n in range(8):
            shapes = list(partitions_of(n))
            for lam in shapes:
                for mu in shapes:
                    assert character(lam, mu) == character_oracle(lam, mu), (lam, mu)
            for lam in shapes:
                for rho in shapes:
                    total = sum(
                        Fraction(
                            character(lam, mu) * character(rho, mu),
                            centralizer_order(mu),
                        )
                        for mu in shapes
                    )
                    assert total == (1 if lam == rho else 0), (lam, rho)
        for k in range(2, 9):
            for alpha in partitions_of(k):
                assert transposition_character(alpha) == character(
                    alpha, (2,) + (1,) * (k - 2)
                ), alpha


def test_criterion_06_vanishing_coefficients():
    with criterion(6, "e_0 = f/k! and e_1 = e_2 = 0 for all |alpha| <= 8"):
        for k in range(9):
            for alpha in partitions_of(k):
                assert t_shift_coeff(0, alpha) == Fraction(
                    syt_count(alpha), factorial(k)
                ), alpha
                if k >= 1:
                    assert t_shift_coeff(1, alpha) == 0, alpha
                if k >= 2:
                    assert t_shift_coeff(2, alpha) == 0, alpha


def test_criterion_07_conjugate_symmetry():
    with criterion(7, "N(n; alpha) = N(n; alpha') and f(lam/alpha) = f(lam'/alpha')"):
        for k in range(6):
            for alpha in partitions_of(k):
                for n in range(k, 13):
                    assert N_expansion(n, alpha) == N_expansion(n, conjugate(alpha))
        for n in range(11):
            for lam in partitions_of(n):
                for k in range(min(n, 4) + 1):
                    for alpha in partitions_of(k):
                        if not contains(lam, alpha):
                            continue
                        shape = SkewShape(lam, alpha)
                        assert skew_syt_det(shape) == skew_syt_det(shape.conjugate())


def test_criterion_08_stability_and_generating_polynomials():
    with criterion(8, "stability k <= 8, generating polys n <= 6, row forms to 20"):
        for k in range(9):
            assert stability_check(k), k
        for n in range(7):
            assert generating_poly_check(n, 8), n
        for total in range(21):
            for k in range(total + 1):
                N_row(total, k)  # raises internally on two-form mismatch


def test_criterion_09_moser_wyman_accuracy():
    with criterion(9, "order-2 error < 0.5% at n=10, < 0.05% at n=100, monotone at 50"):
        assert abs(relative_error(mw_log_involutions_estimate(10, 2), involutions(10))) < 0.005
        assert (
            abs(relative_error(mw_log_involutions_estimate(100, 2), involutions(100)))
            < 0.0005
        )
        errors = [
            abs(relative_error(mw_log_involutions_estimate(50, order), involutions(50)))
            for order in (0, 1, 2)
        ]
        assert errors[0] > errors[1] > errors[2]


def test_criterion_10_two_row_limit_law():
    with criterion(10, "two-row ratio law exact for m = 2..200; limit value 3/4"):
        limit = super_schur_value((2,), (Fraction(1, 2), Fraction(1, 2)), ())
        assert limit == Fraction(3, 4)
        for m in range(2, 201):
            ratio = Fraction(
                skew_syt_det(SkewShape((m, m), (2,))), syt_count((m, m))
            )
            assert ratio == Fraction(3 * (m - 1), 2 * (2 * m - 1)), m
            assert limit - ratio == Fraction(3, 4 * (2 * m - 1)), m


def test_criterion_11_super_schur_factorization():
    with criterion(11, "rectangle factorization = super-Schur on 20 random instances"):
        rng = random.Random(20010909)
        for _ in range(20):
            i = rng.randint(1, 3)
            j = rng.randint(1, 3)
            mu = rng.choice(
                [p for w in range(4) for p in partitions_of(w) if len(p) <= i]
            )
            nu = rng.choice(
                [p for w in range(4) for p in partitions_of(w) if len(p) <= j]
            )
            a = tuple(sorted((random_fraction(rng) for _ in range(i)), reverse=True))
            b = tuple(sorted((random_fraction(rng) for _ in range(j)), reverse=True))
            alpha, value = rectangle_factorization(i, j, mu, nu, a, b)
            assert value == super_schur_value(alpha, a, b), (i, j, mu, nu, a, b)
            assert value == super_schur_power_sum(alpha, a, b), (i, j, mu, nu, a, b)


def test_criterion_12_schur_sum_identity():
    with criterion(12, "Schur-sum identity for n <= 6 on 10 random rational vectors"):
        rng = random.Random(5271009)
        for _ in range(10):
            values = tuple(random_fraction(rng) for _ in range(rng.randint(1, 4)))
            for n in range(7):
                assert schur_sum_identity_check(n, values), (n, values)


def test_criterion_13_probability_expansion_consistency():
    with criterion(13, "residual * n^(5/2) at n=60 at most twice its n=30 value"):
        report = {}
        for alpha in [(2, 1), (3,), (2, 2)]:
            scaled = {}
            for n in range(20, 61, 10):
                resid = abs(
                    float(containment_probability(n, alpha))
                    - containment_probability_estimate(n, alpha)
                )
                scaled[n] = resid * n**2.5
            report[alpha] = scaled
            assert scaled[60] <= 2 * scaled[30], (alpha, scaled)
        print()
        print("probability-expansion report: residual * n^(5/2)")
        header = "alpha      " + "".join(f"  n={n:<8d}" for n in range(20, 61, 10))
        print(header)
        for alpha, scaled in report.items():
            row = f"{str(alpha):11s}" + "".join(f"  {v:<10.5f}" for v in scaled.values())
            print(row)


def test_criterion_14_bulk_mass_report():
    with criterion(14, "bulk mass monotone in eps (set inclusion); table emitted"):
        table = {}
        eps_grid = [Fraction(1, 4), Fraction(1, 2), Fraction(1)]
        for n in (16, 25, 36, 49):
            members = [set(bulk_members(n, eps)) for eps in eps_grid]
            assert members[0] <= members[1] <= members[2], n
            table[n] = [bulk_mass(n, eps) for eps in eps_grid]
        print()
        print("bulk-mass report: exact share of SYT with shape in the window")
        print("n     eps=1/4     eps=1/2     eps=1")
        for n, masses in table.items():
            print(f"{n:<4d}" + "".join(f"  {float(m):<10.6f}" for m in masses))
