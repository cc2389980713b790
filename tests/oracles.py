"""Test-only oracles: slow, desk-scale recomputations by routes that share
no code with the library's own.

``character_oracle`` reads characters off the alternant times a power sum,
independently of the layered border-strip rule.  ``schur_sum_identity_check``
checks the Schur-sum identity behind the acceptance suite's criterion 12.
``leibniz_det`` is the permutation-sum determinant, with no elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from skewtab.asymptotics import power_sum, schur_value
from skewtab.partitions import Partition, centralizer_order, partitions_of, square_cycle_type

ORACLE_WEIGHT_CAP = 8


def _perm_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def leibniz_det(matrix: list[list[int]]) -> int:
    """Determinant as the signed sum over permutations; 1 for the 0x0 matrix."""
    total = 0
    for perm in permutations(range(len(matrix))):
        term = _perm_sign(perm)
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def character_oracle(lam: Partition, mu: Partition) -> int:
    """Desk-scale recomputation of character(lam, mu) by alternant extraction.

    Expands the power sum p_mu in len(lam) variables as a monomial dict, then
    reads off the coefficient of x**(lam + delta) in the product with the
    Vandermonde alternant.  Independent of the border-strip recursion.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"invalid character key: |{lam}| != |{mu}|")
    n = sum(lam)
    if n > ORACLE_WEIGHT_CAP:
        raise ValueError(f"oracle is desk-scale only (weight <= {ORACLE_WEIGHT_CAP})")
    if n == 0:
        return 1
    nvars = len(lam)
    delta = tuple(range(nvars - 1, -1, -1))
    target = tuple(lam[i] + delta[i] for i in range(nvars))
    poly: dict[tuple[int, ...], int] = {(0,) * nvars: 1}
    for part in mu:
        grown: dict[tuple[int, ...], int] = {}
        for exps, coeff in poly.items():
            for i in range(nvars):
                bumped = exps[:i] + (exps[i] + part,) + exps[i + 1 :]
                grown[bumped] = grown.get(bumped, 0) + coeff
        poly = grown
    total = 0
    for perm in permutations(range(nvars)):
        needed = tuple(target[i] - delta[perm[i]] for i in range(nvars))
        if min(needed) < 0:
            continue
        total += _perm_sign(perm) * poly.get(needed, 0)
    return total


def schur_sum_identity_check(n: int, values) -> bool:
    """Check sum over lam of s_lam = sum over lam of p_(square type)/z_lam.

    Both sides are restricted to partitions of n and evaluated exactly at the
    given rational vector.  Desk-scale guard: n <= 8 and at most 4 values.
    """
    if n > 8 or len(tuple(values)) > 4:
        raise ValueError("identity check is desk-scale only (n <= 8, <= 4 values)")
    values = tuple(Fraction(v) for v in values)
    schur_side = sum((schur_value(lam, values) for lam in partitions_of(n)), Fraction(0))
    power_side = Fraction(0)
    for lam in partitions_of(n):
        product = Fraction(1)
        for part in square_cycle_type(lam):
            product *= power_sum(part, values)
            if product == 0:
                break
        power_side += Fraction(1, centralizer_order(lam)) * product
    return schur_side == power_side
