from fractions import Fraction
from itertools import accumulate, permutations
from math import comb, factorial

import pytest

from skewtab.characters import syt_count
from skewtab.partitions import partitions_of
from skewtab.sequences import a_poly, b_stable, involutions, q_coeff


# ---------------------------------------------------------------- oracles

def brute_involutions(n):
    count = 0
    for raw in permutations(range(n)):
        if all(raw[raw[x]] == x for x in range(n)):
            count += 1
    return count


def brute_no_short_cycles(n):
    """Permutations of degree n whose every cycle has length >= 3."""
    count = 0
    for raw in permutations(range(n)):
        ok = True
        seen = set()
        for start in range(n):
            if start in seen:
                continue
            size = 0
            x = start
            while x not in seen:
                seen.add(x)
                x = raw[x]
                size += 1
            if size < 3:
                ok = False
                break
        count += ok
    return count


def egf_quadratic_coefficients(c1, c2, length):
    """Series coefficients of exp(c1 x + c2 x**2), an independent route."""
    coeffs = [Fraction(1)]
    for m in range(1, length):
        prev2 = coeffs[m - 2] if m >= 2 else Fraction(0)
        coeffs.append((c1 * coeffs[m - 1] + 2 * c2 * prev2) / m)
    return coeffs


def derivative_recurrence_polys(length):
    """A_0 = 1 and A_{n+1} = A_n' + (x+1) A_n, built as deriv + shift + self."""
    polys = [(1,)]
    for _ in range(1, length):
        prev = polys[-1]
        deriv = [(i + 1) * c for i, c in enumerate(prev[1:])] + [0, 0]
        shifted = [0, *prev]  # x * A
        polys.append(tuple(d + s + p for d, s, p in zip(deriv, shifted, [*prev, 0])))
    return polys


# ------------------------------------------------------------------ tests

def test_involutions_examples():
    assert involutions(0) == 1
    assert involutions(1) == 1
    assert involutions(4) == 10
    assert involutions(10) == 9496


def test_involutions_negative_index_is_zero():
    assert involutions(-1) == 0
    assert involutions(-5) == 0


def test_involutions_brute_force():
    for n in range(8):
        assert involutions(n) == brute_involutions(n)


def test_involutions_equal_total_syt_count():
    for n in range(13):
        assert sum(syt_count(lam) for lam in partitions_of(n)) == involutions(n)


def test_q_coeff_examples():
    assert q_coeff(0) == 1
    assert q_coeff(1) == 0
    assert q_coeff(2) == 0
    assert q_coeff(3) == Fraction(1, 3)
    assert q_coeff(4) == Fraction(1, 4)


def test_q_coeff_counts_short_cycle_free_permutations():
    for j in range(8):
        scaled = q_coeff(j) * factorial(j)
        assert scaled.denominator == 1
        assert scaled == brute_no_short_cycles(j)


def test_q_coeff_scaled_is_nonnegative_integer():
    for j in range(21):
        scaled = q_coeff(j) * factorial(j)
        assert scaled.denominator == 1 and scaled >= 0


def test_q_coeff_is_partial_sums_of_the_exponential_series():
    exp_terms = egf_quadratic_coefficients(Fraction(-1), Fraction(-1, 2), 150)
    for j, partial_sum in enumerate(accumulate(exp_terms)):
        assert q_coeff(j) == partial_sum, j


def test_b_stable_examples():
    assert b_stable(0) == 1
    assert b_stable(1) == 2
    assert b_stable(2) == 5
    assert b_stable(4) == 43


def test_b_stable_binomial_convolution_of_involutions():
    for n in range(60):
        assert b_stable(n) == sum(comb(n, j) * involutions(n - j) for j in range(n + 1))


def test_b_stable_matches_egf_expansion():
    coeffs = egf_quadratic_coefficients(Fraction(2), Fraction(1, 2), 12)
    for n in range(12):
        assert b_stable(n) == coeffs[n] * factorial(n)


def test_a_poly_examples():
    assert a_poly(0) == (1,)
    assert a_poly(1) == (1, 1)
    assert a_poly(2) == (2, 2, 1)


def test_a_poly_is_monic_of_degree_n():
    for n in range(10):
        coeffs = a_poly(n)
        assert len(coeffs) == n + 1
        assert coeffs[-1] == 1


def test_a_poly_matches_the_derivative_recurrence():
    for n, poly in enumerate(derivative_recurrence_polys(61)):
        assert a_poly(n) == poly, n


def test_a_poly_value_at_one_is_stable_count():
    # sum of coefficients = stabilized single-row count
    for n in range(10):
        assert sum(a_poly(n)) == b_stable(n)


def test_bad_indices_raise():
    with pytest.raises(ValueError):
        q_coeff(-1)
    with pytest.raises(ValueError):
        b_stable(-1)
    with pytest.raises(ValueError):
        a_poly(-1)
