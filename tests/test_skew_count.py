import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import skewtab
from oracles import aitken_full_count
from skewtab import skew_count
from skewtab.characters import syt_count
from skewtab.exact import IntegralityError, integer_det
from skewtab.partitions import (
    InvalidSkewShapeError,
    SkewShape,
    contains,
    partitions_of,
    skew_cells,
)
from skewtab.skew_count import (
    BRUTE_FORCE_CELL_CAP,
    CapacityError,
    path_totals,
    skew_syt_brute,
    skew_syt_char,
    skew_syt_det,
)


# ---------------------------------------------------------------- oracles

def filtered_permutation_count(shape):
    """Count skew SYT by filtering raw assignments; independent of everything."""
    cells = shape.cells()
    n = len(cells)
    gridset = set(cells)
    count = 0
    for values in permutations(range(1, n + 1)):
        grid = dict(zip(cells, values))
        ok = all(
            grid[(i, j)] < grid[(i, j + 1)]
            for (i, j) in cells
            if (i, j + 1) in gridset
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)]
            for (i, j) in cells
            if (i + 1, j) in gridset
        )
        count += ok
    return count


def row_strip_closed_form(m):
    """f for the two-row shape (m, m) minus a two-cell strip, m >= 2."""
    value, rem = divmod(3 * factorial(2 * m - 2), factorial(m - 2) * factorial(m) * (m + 1))
    assert rem == 0
    return value


def small_skew_pairs(max_outer, max_inner):
    for n in range(max_outer + 1):
        for lam in partitions_of(n):
            for k in range(min(n, max_inner) + 1):
                for alpha in partitions_of(k):
                    if contains(lam, alpha):
                        yield SkewShape(lam, alpha)


def grown(rng, shape, cells, max_rows):
    """``shape`` with ``cells`` cells added at random outer corners, in at most max_rows rows."""
    rows = list(shape)
    for _ in range(cells):
        ends = [i for i in range(1, len(rows)) if rows[i] < rows[i - 1]]
        if len(rows) < max_rows:
            ends.append(len(rows))
            rows.append(0)
        i = rng.choice([0, *ends])
        rows[i] += 1
        if rows[-1] == 0:
            rows.pop()
    return tuple(rows)


def filtered_inner_sum(alpha, m):
    """Sum of f^(alpha/mu) over every partition mu of m that fits inside alpha."""
    return sum(
        skew_syt_det(SkewShape(alpha, mu)) for mu in partitions_of(m) if contains(alpha, mu)
    )


@st.composite
def skew_shapes(draw, max_cells=12):
    """An outer shape of at most max_cells cells and any inner shape inside it."""
    n = draw(st.integers(min_value=0, max_value=max_cells))
    outer = draw(st.sampled_from(list(partitions_of(n))))
    inners = [
        alpha
        for k in range(n + 1)
        for alpha in partitions_of(k)
        if contains(outer, alpha)
    ]
    return SkewShape(outer, draw(st.sampled_from(inners)))


# ------------------------------------------------------------------ tests

def test_brute_examples():
    assert skew_syt_brute(SkewShape((3,), (3,))) == 1
    assert skew_syt_brute(SkewShape((2, 1), (1,))) == 2
    assert skew_syt_brute(SkewShape((2, 2, 1), (1,))) == 5


def test_brute_against_permutation_filter():
    for shape in small_skew_pairs(7, 4):
        assert skew_syt_brute(shape) == filtered_permutation_count(shape)


def test_brute_equals_det_up_to_10_cells():
    for shape in small_skew_pairs(10, 10):
        assert skew_syt_brute(shape) == skew_syt_det(shape), shape


def test_every_route_takes_a_plain_pair_as_it_takes_a_skew_shape():
    routes = skew_count.routes()
    for shape in small_skew_pairs(10, 10):
        pair = (shape.outer, shape.inner)
        assert type(pair) is tuple
        counts = {route(pair) for route in routes.values()}
        counts |= {route(shape) for route in routes.values()}
        assert len(counts) == 1, shape


def test_brute_stack_depth_does_not_grow_with_cells():
    # A recursive path count needs about one frame per cell, so it fails at
    # this limit on the 25-cell column; the level-by-level walk does not.
    script = (
        "import sys\n"
        "from skewtab.partitions import SkewShape\n"
        "from skewtab.skew_count import skew_syt_brute\n"
        "shape = SkewShape((1,) * 25, ())\n"
        "sys.setrecursionlimit(15)\n"
        "print(skew_syt_brute(shape))\n"
    )
    src = os.path.dirname(os.path.dirname(skewtab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"


def test_brute_equals_det_on_18_to_25_cell_tops():
    # From a single row (rows = 1) to a single column (rows = n), tall tops of
    # 15 rows or more among them; floors (), the top itself, a random floor
    # with as many rows as the top, and a random shorter one.
    for n in range(18, BRUTE_FORCE_CELL_CAP + 1):
        rng = random.Random(n)
        for rows in (1, 2, 4, 7, 11, 15, rng.randint(16, n), n):
            top = grown(rng, (1,) * rows, n - rows, rows)
            assert len(top) == rows and sum(top) == n, top
            # sorting keeps row i at most top[i]
            full = tuple(sorted((rng.randint(1, row) for row in top), reverse=True))
            for floor in ((), top, full, full[: rng.randint(0, rows - 1)]):
                shape = SkewShape(top, floor)
                assert skew_syt_brute(shape) == skew_syt_det(shape), shape


def test_brute_cap():
    with pytest.raises(CapacityError):
        skew_syt_brute(SkewShape((26,), ()))
    assert issubclass(CapacityError, ValueError)
    assert skew_syt_brute(SkewShape((25,), ())) == 1


def test_det_examples():
    assert skew_syt_det(SkewShape((2, 2, 1), (1,))) == 5
    for k in range(6):
        shape = SkewShape((k,) if k else (), (k,) if k else ())
        assert skew_syt_det(shape) == 1


def test_det_row_strip_closed_form():
    for m in range(2, 13):
        shape = SkewShape((m, m), (2,))
        closed = row_strip_closed_form(m)
        assert skew_syt_det(shape) == closed
        assert skew_syt_brute(shape) == closed


def test_char_examples():
    assert skew_syt_char(SkewShape((2, 1), (1,))) == 2
    assert skew_syt_char(SkewShape((2, 2, 1), (1,))) == 5


def test_char_with_empty_inner_is_straight_count():
    for n in range(9):
        for lam in partitions_of(n):
            assert skew_syt_char(SkewShape(lam, ())) == skew_syt_det(SkewShape(lam, ()))


def test_triple_agreement_small():
    for shape in small_skew_pairs(8, 4):
        brute = skew_syt_brute(shape)
        assert brute == skew_syt_det(shape)
        assert brute == skew_syt_char(shape)


@settings(deadline=None)
@given(skew_shapes())
def test_three_routes_agree_on_random_shapes(shape):
    brute = skew_syt_brute(shape)
    assert skew_syt_det(shape) == brute
    assert skew_syt_char(shape) == brute


@pytest.mark.parametrize(
    "outer, inner",
    [
        ((24, 23, 21, 21, 20, 19, 18, 17, 16, 14, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 2),
         (2, 1, 1, 1, 1)),
        ((22, 22, 19, 19, 19, 17, 17, 14, 14, 14, 12, 11, 10, 9, 9, 8, 8, 6, 4, 3, 3, 1), (5,)),
        ((30,) + (1,) * 30, (2,)),
        ((20,) * 20, (5, 3, 1)),
        (tuple(range(10, 0, -1)), (3, 2, 1)),
        ((161, 81) + (1,) * 80, (3, 2)),
        ((321, 161) + (1,) * 160, (3, 2)),
    ],
)
def test_det_agrees_with_char_and_its_conjugate_on_large_shapes(outer, inner):
    shape = SkewShape(outer, inner)
    count = skew_syt_det(shape)
    assert count > 0
    assert skew_syt_char(shape) == count
    assert skew_syt_det(shape.conjugate()) == count


def test_det_equals_full_aitken_matrix():
    pairs = list(small_skew_pairs(12, 12))
    assert len(pairs) == 8855
    for shape in pairs:
        assert skew_syt_det(shape) == aitken_full_count(shape), shape
    # 2-40 rows, inner of 0, 1, 2, ell // 2, ell - 1 and ell rows: every m from ell to 0
    rng = random.Random(2024)
    for _ in range(50):
        ell = rng.randint(2, 40)
        outer = tuple(sorted((rng.randint(1, 12) for _ in range(ell)), reverse=True))
        for rows in sorted({0, 1, 2, ell // 2, ell - 1, ell}):
            inner = []
            for part in outer[:rows]:
                inner.append(rng.randint(1, min(part, inner[-1]) if inner else part))
            shape = SkewShape(outer, tuple(inner))
            assert skew_syt_det(shape) == aitken_full_count(shape), shape


@pytest.mark.parametrize(
    "outer, inner",
    [((), ()), ((5, 3), ()), ((4, 3, 1), (2, 1)), ((3, 3, 3), (3, 3, 3)), ((20,) * 20, (5, 3, 1))],
)
def test_det_eliminates_one_inner_sized_matrix(monkeypatch, outer, inner):
    sizes = []

    def recording_det(matrix):
        sizes.append([len(row) for row in matrix])
        return integer_det(matrix)

    monkeypatch.setattr(skew_count, "integer_det", recording_det)
    shape = SkewShape(outer, inner)
    assert skew_syt_det(shape) == aitken_full_count(shape)
    assert sizes == [[len(inner)] * len(inner)]


def test_conjugation_symmetry():
    # all inner shapes, not just small ones
    for shape in small_skew_pairs(9, 9):
        assert skew_syt_det(shape) == skew_syt_det(shape.conjugate())


def test_positivity():
    for shape in small_skew_pairs(8, 4):
        assert skew_syt_det(shape) >= 1


def test_row_strip_ratio_identity():
    for m in range(2, 51):
        ratio = Fraction(
            skew_syt_det(SkewShape((m, m), (2,))), syt_count((m, m))
        )
        assert ratio == Fraction(3 * (m - 1), 2 * (2 * m - 1))


def level_sums(alpha):
    """Entry m: the sum of f^(alpha/mu) over mu of weight m, read from one walk."""
    return path_totals(alpha, ())[::-1]


def test_walk_down_level_sums():
    # one level per weight 0..3: {()}, {(1,)}, {(2,), (1, 1)}, {(2, 1)}
    assert level_sums((2, 1)) == [2, 2, 2, 1]


def test_walk_down_from_the_empty_shape():
    assert path_totals((), ()) == [1]


def test_path_totals_with_a_floor_against_filtering_every_partition():
    # entry m sums f^(top/mu) over the mu of weight |top| - m between floor and top
    for top, floor in ((s.outer, s.inner) for s in small_skew_pairs(8, 8)):
        for m, total in enumerate(path_totals(top, floor)):
            assert total == sum(
                skew_syt_det(SkewShape(top, mu))
                for mu in partitions_of(sum(top) - m)
                if contains(top, mu) and contains(mu, floor)
            ), (top, floor, m)


@pytest.mark.parametrize(
    "top, floor",
    [((3, 1), (1, 1, 1)), ((1,), (2,)), ((), (1,)), ((4, 2), (3, 3)), ((2, 2, 1), (2, 2, 2))],
)
def test_path_totals_rejects_a_floor_outside_the_top(top, floor):
    with pytest.raises(InvalidSkewShapeError):
        path_totals(top, floor)


def test_walk_down_level_sums_against_filtering_every_partition():
    for k in range(11):
        for alpha in partitions_of(k):
            sums = level_sums(alpha)
            assert len(sums) == k + 1, alpha
            for m in range(k + 1):
                assert sums[m] == filtered_inner_sum(alpha, m), (alpha, m)
