import random

import pytest

from oracles import leibniz_det
from skewtab.exact import IntegralityError, exact_div, integer_det


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


def test_exact_div_returns_a_count():
    assert exact_div(6, 2, "count") == 3
    assert exact_div(0, 1, "count") == 0


@pytest.mark.parametrize(
    "numerator, denominator, reason",
    [
        (-3, 1, "expected a nonnegative count"),
        (-6, 2, "expected a nonnegative count"),
        (-1, 1, "expected a nonnegative count"),
        (1, 2, "expected an integer"),
    ],
)
def test_exact_div_rejects_what_is_not_a_count(numerator, denominator, reason):
    with pytest.raises(IntegralityError, match=reason):
        exact_div(numerator, denominator, "count")


def test_exact_div_message_renders_no_operand():
    # 5,000 digits, past the int-to-str limit: rendering it would raise ValueError
    numerator = 10**4999 + 1
    with pytest.raises(IntegralityError) as caught:
        exact_div(numerator, 2, "sum for %s at n=%d", (2, 1), 7)
    assert str(caught.value) == "sum for (2, 1) at n=7: expected an integer"
