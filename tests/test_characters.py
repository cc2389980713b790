from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from skewtab.characters import (
    character,
    character_column,
    clear_character_cache,
    syt_count,
)
from skewtab.containment import t_shift_coeff
from skewtab.partitions import (
    SkewShape,
    centralizer_order,
    conjugate,
    partitions_no_small_parts,
    partitions_of,
    square_cycle_type,
)
from skewtab.skew_count import skew_syt_brute

from oracles import (
    ORACLE_WEIGHT_CAP,
    character_oracle,
    hook_length_count,
    transposition_character,
)


# ---------------------------------------------------------------- oracles

def brute_syt_count(lam):
    """Count SYT by testing every assignment of 1..n to the cell list."""
    cells = [(i, j) for i, part in enumerate(lam) for j in range(part)]
    n = len(cells)
    count = 0
    for values in permutations(range(1, n + 1)):
        grid = {cell: v for cell, v in zip(cells, values)}
        ok = all(
            grid[(i, j)] < grid[(i, j + 1)]
            for (i, j) in cells
            if (i, j + 1) in grid
        ) and all(
            grid[(i, j)] < grid[(i + 1, j)]
            for (i, j) in cells
            if (i + 1, j) in grid
        )
        count += ok
    return count


# ------------------------------------------------------------------ tests

def test_syt_count_examples():
    assert syt_count(()) == 1
    assert syt_count((2, 1)) == 2
    assert syt_count((3, 2)) == 5


@pytest.mark.parametrize("bad", [(1, 2), (2, 0), (0,), (3, -1)])
def test_syt_count_refuses_a_non_partition_as_character_does(bad):
    with pytest.raises(ValueError, match="partition parts"):
        character(bad, (1,) * max(sum(bad), 0))
    with pytest.raises(ValueError, match="partition parts"):
        syt_count(bad)


def test_syt_count_brute_force_small():
    for n in range(7):
        for lam in partitions_of(n):
            assert syt_count(lam) == brute_syt_count(lam)


def test_syt_count_matches_hook_lengths():
    # the Frobenius finish against the hook-length formula, on every shape up
    # to 20 cells and on long, tall and staircase beta sets
    for n in range(21):
        for lam in partitions_of(n):
            assert syt_count(lam) == hook_length_count(lam), lam
    for lam in [(1500,), (1,) * 300, tuple(range(30, 0, -1))]:
        assert syt_count(lam) == hook_length_count(lam), lam


def test_syt_count_conjugation_invariance():
    for n in range(11):
        for lam in partitions_of(n):
            assert syt_count(lam) == syt_count(conjugate(lam))


def test_syt_count_squares_sum_to_group_order():
    for n in range(9):
        assert sum(syt_count(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_character_trivial_shape():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1


def test_character_examples():
    assert character((2, 1), (3,)) == -1
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (2, 1)) == 0


def test_character_weight_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2,))


@pytest.mark.parametrize(
    "lam, mu", [((1, 2), (2, 1)), ((1, 2), (1, 1, 1)), ((2,), (2, 0)), ((2,), (3, -1))]
)
def test_character_rejects_non_partitions(lam, mu):
    with pytest.raises(ValueError):
        character(lam, mu)


def test_character_on_identity_class_is_dimension():
    # brute_syt_count, not syt_count: character reads the identity class
    # from syt_count itself
    for n in range(8):
        identity = (1,) * n
        for lam in partitions_of(n):
            assert character(lam, identity) == brute_syt_count(lam)
    # past desk scale for the filter, count growth paths from the empty shape
    for n in range(8, 10):
        identity = (1,) * n
        for lam in partitions_of(n):
            assert character(lam, identity) == skew_syt_brute(SkewShape(lam, ()))


def test_character_sign_shape():
    # single-column shape carries the sign character
    for n in range(1, ORACLE_WEIGHT_CAP + 1):
        for mu in partitions_of(n):
            expected = 1 if (n - len(mu)) % 2 == 0 else -1
            assert character((1,) * n, mu) == expected


def test_character_matches_oracle_small():
    # every class nu of k <= n cells, padded with 1s, is a class of n cells;
    # (1^8) would cost the oracle 8! permutations per class, and its
    # characters are the sign, which test_character_sign_shape checks
    for n in range(ORACLE_WEIGHT_CAP + 1):
        shapes = [lam for lam in partitions_of(n) if len(lam) < 8]
        oracle = {
            (lam, mu): character_oracle(lam, mu) for lam in shapes for mu in partitions_of(n)
        }
        for (lam, mu), value in oracle.items():
            assert character(lam, mu) == value, (lam, mu)
        for lam in shapes:
            for k in range(n + 1):
                classes = list(partitions_of(k))
                expected = [oracle[lam, nu + (1,) * (n - k)] for nu in classes]
                assert character_column(lam, classes) == expected, (lam, k)


def test_tall_shapes_match_oracle_at_weight_8():
    # a shape longer than it is wide is stripped through its conjugate, with
    # the sign of the class; the oracle works on the shape itself
    clear_character_cache()
    tall = [lam for lam in partitions_of(8) if lam[0] < len(lam) <= 6]
    assert len(tall) >= 5
    for lam in tall:
        for mu in partitions_of(8):
            assert character(lam, mu) == character_oracle(lam, mu), (lam, mu)


PARTITIONS_UP_TO_8 = {n: list(partitions_of(n)) for n in range(9)}


@settings(deadline=None)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(
            st.sampled_from(PARTITIONS_UP_TO_8[n]), st.sampled_from(PARTITIONS_UP_TO_8[n])
        )
    )
)
def test_character_matches_oracle_on_random_pairs(pair):
    lam, mu = pair
    clear_character_cache()  # compute each pair afresh, not from an earlier example
    assert character(lam, mu) == character_oracle(lam, mu)


def test_character_column_matches_character_on_every_class_up_to_10_cells():
    for n in range(11):
        for lam in partitions_of(n):
            for k in range(n + 1):
                classes = list(partitions_of(k))
                expected = [character(lam, nu + (1,) * (n - k)) for nu in classes]
                assert character_column(lam, classes) == expected, (lam, k)


def test_character_column_keeps_the_order_of_its_classes():
    classes = [(2, 2), (3,), (), (2,), (3, 2), (3, 1, 1), (2, 2), (1, 1, 1)]
    expected = [character((4, 2, 1), nu + (1,) * (7 - sum(nu))) for nu in classes]
    assert character_column((4, 2, 1), classes) == expected
    assert character_column((4, 2, 1), []) == []


@pytest.mark.parametrize(
    "lam, classes", [((2, 1), [(4,)]), ((2, 1), [(2,), (1, 2)]), ((1, 2), [()])]
)
def test_character_column_rejects_invalid_keys(lam, classes):
    with pytest.raises(ValueError):
        character_column(lam, classes)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.integers(1, 12), min_size=3, max_size=12)
    .map(lambda parts: tuple(sorted(parts, reverse=True)))
    .filter(lambda lam: 26 <= sum(lam) <= 45),
    st.booleans(),
    st.integers(0, 6),
)
def test_character_column_matches_character_on_26_to_45_cells(lam, tall, k):
    # a tall shape is stripped through its conjugate, with the sign of the class
    wide, long = sorted((lam, conjugate(lam)), key=len)
    lam = long if tall else wide
    n = sum(lam)
    classes = list(partitions_of(k))
    expected = [character(lam, nu + (1,) * (n - k)) for nu in classes]
    assert character_column(lam, classes) == expected


def test_character_oracle_examples():
    assert character_oracle((1, 1), (2,)) == -1
    assert character_oracle((2, 1), (2, 1)) == 0
    for k in range(1, 7):
        for mu in partitions_of(k):
            assert character_oracle((k,), mu) == 1


def test_character_oracle_weight_cap():
    with pytest.raises(ValueError):
        character_oracle((9,), (9,))
    with pytest.raises(ValueError):
        character_oracle((2, 1), (2,))


def test_orthogonality_of_rows():
    for n in range(7):
        shapes = list(partitions_of(n))
        for lam in shapes:
            for rho in shapes:
                total = sum(
                    Fraction(character(lam, mu) * character(rho, mu), centralizer_order(mu))
                    for mu in partitions_of(n)
                )
                assert total == (1 if lam == rho else 0)


def test_conjugate_shape_agrees_on_doubled_classes():
    # classes (square type, 1...) are even, so conjugating the shape is free
    for k in range(1, 7):
        for alpha in partitions_of(k):
            for j in range(k + 1):
                for mu in partitions_no_small_parts(j):
                    cls = tuple(
                        sorted(square_cycle_type(mu) + (1,) * (k - j), reverse=True)
                    )
                    assert character(alpha, cls) == character(conjugate(alpha), cls)


def test_transposition_character_examples():
    assert transposition_character((2,)) == 1
    assert transposition_character((1, 1)) == -1
    assert transposition_character((2, 1)) == 0
    with pytest.raises(ValueError):
        transposition_character((1,))


def test_transposition_character_matches_recursion():
    # all 506 partitions of 2..14 cells: biane_estimate reads the layered rule
    for k in range(2, 15):
        for alpha in partitions_of(k):
            value = transposition_character(alpha)
            assert value.denominator == 1
            assert value == character(alpha, (2,) + (1,) * (k - 2))


def test_character_depth_does_not_track_weight():
    # one layer per 2-cycle; a recursion per part overflows the Python stack
    assert character((1,) * 3000, (2,) * 1500) == 1
    assert character((3000,), (2,) * 1500) == 1


def test_character_cache_clear():
    syt_count((3, 1))
    assert syt_count.cache_info().currsize > 0
    clear_character_cache()
    assert syt_count.cache_info().currsize == 0


def test_benchmarked_memo_tables_report_their_size():
    # the benchmark worker reads cache_info().currsize off both tables
    syt_count((2, 1))
    t_shift_coeff(3, (2, 1))
    for table in (syt_count, t_shift_coeff):
        assert table.cache_info().currsize > 0, table


def test_character_concurrent_readers_consistent():
    clear_character_cache()
    work = [
        (lam, mu)
        for lam in partitions_of(8)
        for mu in [(3, 3, 1, 1), (2, 2, 2, 2), (8,), (1,) * 8]
    ]
    serial = {key: character(*key) for key in work}
    clear_character_cache()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda key: character(*key), work * 4))
    assert results == [serial[key] for key in work * 4]
