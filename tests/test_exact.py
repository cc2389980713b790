import random
from fractions import Fraction

import pytest

from oracles import leibniz_det
from skewtab.exact import IntegralityError, as_integer, integer_det


def random_matrix(rng, n, low=-9, high=9):
    return [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", range(7))
def test_integer_det_matches_leibniz_on_random_matrices(n):
    rng = random.Random(20010615 + n)
    for _ in range(30):
        matrix = random_matrix(rng, n)
        assert integer_det(matrix) == leibniz_det(matrix), matrix
        # small entries make zero pivots and singular matrices common
        sparse = random_matrix(rng, n, low=-1, high=1)
        assert integer_det(sparse) == leibniz_det(sparse), sparse


@pytest.mark.parametrize(
    "matrix",
    [
        [],
        [[0, 1], [1, 0]],  # zero leading pivot: one row swap
        [[0, 2, 1], [0, 1, 3], [4, 1, 1]],  # the swap partner is the last row
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],  # the second pivot vanishes mid-elimination
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # zero column
        [[1, 2, 0], [3, 4, 0], [5, 6, 0]],  # zero last column
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # singular, no zero entry
        [[2, 4], [1, 2]],  # singular 2x2
        [[-3, 7, -1], [5, -2, -8], [-6, -4, 9]],  # negative entries
        [[-5]],
    ],
)
def test_integer_det_matches_leibniz_on_edge_cases(matrix):
    assert integer_det(matrix) == leibniz_det(matrix)


def test_as_integer_returns_a_count():
    assert as_integer(Fraction(6, 2), "count") == 3
    assert as_integer(0, "count") == 0


@pytest.mark.parametrize(
    "value, reason",
    [
        (Fraction(-3), "expected a nonnegative count"),
        (Fraction(-6, 2), "expected a nonnegative count"),
        (-1, "expected a nonnegative count"),
        (Fraction(1, 2), "expected an integer"),
    ],
)
def test_as_integer_rejects_what_is_not_a_count(value, reason):
    with pytest.raises(IntegralityError, match=reason):
        as_integer(value, "count")
