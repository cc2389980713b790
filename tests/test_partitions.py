import inspect
import os
import pickle
import subprocess
import sys
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, strategies as st

import skewtab
from skewtab.partitions import (
    InvalidSkewShapeError,
    SkewShape,
    box_partition_count,
    centralizer_order,
    conjugate,
    contains,
    format_partition,
    parse_partition,
    partitions_no_small_parts,
    partitions_of,
    square_cycle_type,
    validate_partition,
)

from oracles import boxed_partitions, recursive_descending_parts, skew_cells


# ---------------------------------------------------------------- oracles

def partition_count_oracle(n):
    """p(n) by Euler's pentagonal-number recurrence."""
    p = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p[n]


def conjugate_oracle(lam):
    """Column counts read off the explicit cell set."""
    cells = {(i, j) for i, part in enumerate(lam) for j in range(part)}
    cols = []
    j = 0
    while (0, j) in cells:
        cols.append(sum(1 for (i, jj) in cells if jj == j))
        j += 1
    return tuple(cols)


def cycle_type(perm):
    """Cycle type of a permutation given as a dict on range(n)."""
    seen = set()
    lengths = []
    for start in perm:
        if start in seen:
            continue
        size = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def permutation_of_type(mu):
    """Any permutation of cycle type mu, as a dict."""
    perm = {}
    start = 0
    for part in mu:
        for offset in range(part):
            perm[start + offset] = start + (offset + 1) % part
        start += part
    return perm


def brute_centralizer_order(mu):
    from itertools import permutations

    n = sum(mu)
    fixed = permutation_of_type(mu)
    count = 0
    for raw in permutations(range(n)):
        perm = dict(enumerate(raw))
        inv = {v: k for k, v in perm.items()}
        if all(perm[fixed[inv[x]]] == fixed[x] for x in range(n)):
            count += 1
    return count


partitions_strategy = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.sampled_from(list(partitions_of(n)) or [()])
)


# ------------------------------------------------------------------ tests

def test_parse_format_round_trip():
    assert parse_partition("") == ()
    assert parse_partition("6,6,5,4,2,1") == (6, 6, 5, 4, 2, 1)
    assert parse_partition(" 3 , 1 ") == (3, 1)
    assert format_partition((6, 6, 5, 4, 2, 1)) == "6,6,5,4,2,1"
    assert format_partition(()) == ""


@pytest.mark.parametrize("bad", ["1,2", "0", "-1", "a,b", "3,,1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


def test_validate_partition_rejects_increasing():
    with pytest.raises(ValueError):
        validate_partition((1, 2))


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((6, 6, 5, 4, 2, 1)) == conjugate_oracle((6, 6, 5, 4, 2, 1))
    assert conjugate((6, 6, 5, 4, 2, 1)) == (6, 5, 4, 4, 3, 2)


def test_conjugate_matches_oracle_exhaustively():
    for n in range(15):
        for lam in partitions_of(n):
            assert conjugate(lam) == conjugate_oracle(lam), lam


@given(partitions_strategy)
def test_conjugate_is_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert conjugate(lam) == conjugate_oracle(lam)


def test_square_cycle_type_examples():
    assert square_cycle_type((6, 6, 5, 4, 2, 1)) == (5, 3, 3, 3, 3, 2, 2, 1, 1, 1)
    assert square_cycle_type((1, 1, 1)) == (1, 1, 1)
    assert square_cycle_type((4,)) == (2, 2)


@given(partitions_strategy)
def test_square_cycle_type_matches_squared_permutation(mu):
    perm = permutation_of_type(mu)
    squared = {x: perm[perm[x]] for x in perm}
    assert square_cycle_type(mu) == cycle_type(squared)


def test_square_cycle_type_is_even():
    # |type| - length even <=> the permutation is even
    for j in range(11):
        for mu in partitions_of(j):
            tilde = square_cycle_type(mu)
            assert sum(tilde) == sum(mu)
            assert (sum(tilde) - len(tilde)) % 2 == 0


def test_centralizer_order_examples():
    assert centralizer_order(()) == 1
    assert centralizer_order((2, 2, 1)) == 8
    assert centralizer_order((3, 1, 1)) == 6


@pytest.mark.parametrize("mu", [(2, 2, 1), (3, 1, 1), (4,), (2, 1, 1), (1, 1, 1, 1)])
def test_centralizer_order_brute_force(mu):
    assert centralizer_order(mu) == brute_centralizer_order(mu)


def test_class_sizes_partition_the_group():
    for n in range(11):
        assert sum(
            factorial(n) // centralizer_order(mu) for mu in partitions_of(n)
        ) == factorial(n)


def test_partitions_of_small():
    assert list(partitions_of(0)) == [()]
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_of_counts_match_pentagonal_recurrence():
    for n in range(21):
        assert sum(1 for _ in partitions_of(n)) == partition_count_oracle(n)


def test_partitions_of_reverse_lex_order():
    for n in range(13):
        seq = list(partitions_of(n))
        assert seq == sorted(seq, reverse=True)
        assert len(set(seq)) == len(seq)


def test_partitions_of_25_has_1958_entries():
    assert sum(1 for _ in partitions_of(25)) == 1958


def test_boxed_partitions_max_part():
    assert list(boxed_partitions(4, 2, 4)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_boxed_partitions_filter_in_order():
    for n in range(21):
        everything = list(partitions_of(n))
        for max_len in range(n + 2):
            expected = [lam for lam in everything if len(lam) <= max_len]
            assert list(boxed_partitions(n, n, max_len)) == expected, (n, max_len)
            for max_part in {0, 1, 2, max_len - 1, max_len, max_len + 1, n // 2, n}:
                boxed = [lam for lam in expected if not lam or lam[0] <= max_part]
                got = list(boxed_partitions(n, max_part, max_len))
                assert got == boxed, (n, max_part, max_len)


def test_box_partition_count_matches_filtered_enumeration():
    # every box from 0 x 0 to one wider and taller than any partition of n
    for n in range(31):
        shapes = Counter((len(lam), lam[0] if lam else 0) for lam in partitions_of(n))
        for rows in range(n + 2):
            for cols in range(n + 2):
                expected = sum(
                    k for (length, first), k in shapes.items() if length <= rows and first <= cols
                )
                assert box_partition_count(n, rows, cols) == expected, (n, rows, cols)


def test_box_partition_count_examples():
    assert box_partition_count(0, 0, 0) == 1
    assert box_partition_count(4, 2, 2) == 1  # (2, 2)
    assert box_partition_count(70, 70, 70) == 4087968  # p(70)
    assert box_partition_count(70, 10**400, 10**400) == 4087968  # sized by n, not the box
    for bad in [(-1, 2, 2), (3, -1, 2), (3, 2, -1)]:
        with pytest.raises(ValueError):
            box_partition_count(*bad)


def test_boxed_partitions_max_len_examples():
    assert list(boxed_partitions(4, 4, 2)) == [(4,), (3, 1), (2, 2)]
    assert list(boxed_partitions(0, 0, 0)) == [()]
    assert list(boxed_partitions(3, 3, 0)) == []
    assert list(boxed_partitions(6, 2, 2)) == []
    with pytest.raises(ValueError):
        list(boxed_partitions(3, 3, -1))


def test_iterative_generator_keeps_the_recursive_order():
    for n in range(41):
        assert list(partitions_of(n)) == list(recursive_descending_parts(n, n, 1)), n
        expected = list(recursive_descending_parts(n, n, 3))
        assert list(partitions_no_small_parts(n)) == expected, n


def test_both_enumerators_are_generator_functions():
    # the benchmark's tracer counts yields only of generator functions
    assert inspect.isgeneratorfunction(partitions_of)
    assert inspect.isgeneratorfunction(partitions_no_small_parts)


def test_partition_enumeration_stack_depth_does_not_grow_with_parts():
    # A generator that recurses once per part needs about 30 frames for
    # (1,) * 30 and fails at this limit; the iterative one does not.
    script = (
        "import sys\n"
        "from skewtab.partitions import partitions_no_small_parts, partitions_of\n"
        "sys.setrecursionlimit(15)\n"
        "print(sum(1 for _ in partitions_of(30)), sum(1 for _ in partitions_no_small_parts(45)))\n"
    )
    src = os.path.dirname(os.path.dirname(skewtab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"5604 {len(list(recursive_descending_parts(45, 45, 3)))}\n"


def test_partitions_no_small_parts():
    assert list(partitions_no_small_parts(1)) == []
    assert list(partitions_no_small_parts(2)) == []
    assert list(partitions_no_small_parts(6)) == [(6,), (3, 3)]
    for j in range(13):
        expected = [mu for mu in partitions_of(j) if all(p >= 3 for p in mu)]
        assert list(partitions_no_small_parts(j)) == expected


def test_contains_and_skew_cells():
    assert not contains((2, 1), (2, 2))
    assert contains((2, 2, 1), (1,))
    assert skew_cells((2, 2, 1), (1,)) == [(1, 2), (2, 1), (2, 2), (3, 1)]
    assert skew_cells((3,), (3,)) == []
    with pytest.raises(InvalidSkewShapeError):
        skew_cells((2, 1), (2, 2))


def test_skew_shape_construction():
    shape = SkewShape((2, 2, 1), (1,))
    assert shape.size == 4
    assert shape.conjugate() == SkewShape((3, 2), (1,))
    with pytest.raises(InvalidSkewShapeError):
        SkewShape((2, 1), (2, 2))
    with pytest.raises(ValueError):
        SkewShape((1, 2), ())


def test_skew_shape_is_an_immutable_validated_record():
    shape = SkewShape((3, 2), (1,))
    assert repr(shape) == "SkewShape(outer=(3, 2), inner=(1,))"
    assert SkewShape(outer=(3, 2), inner=(1,)) == shape == SkewShape([3, 2], [1])
    outer, inner = shape
    assert (outer, inner) == shape == ((3, 2), (1,))
    assert hash(SkewShape((3, 2), (1,))) == hash(shape)
    assert pickle.loads(pickle.dumps(shape)) == shape
    with pytest.raises(AttributeError):
        shape.outer = (4,)
    with pytest.raises(AttributeError):
        shape.extra = 1
    # the namedtuple helpers construct through the same validation
    assert shape._replace(inner=(2,)) == SkewShape((3, 2), (2,))
    with pytest.raises(InvalidSkewShapeError, match=r"^\(4,\) is not contained in \(3, 2\)$"):
        shape._replace(inner=(4,))
    with pytest.raises(InvalidSkewShapeError):
        SkewShape._make([(1,), (1, 1)])


@pytest.mark.parametrize(
    "outer, inner, error, message",
    [
        ((2, 1), (2, 2), InvalidSkewShapeError, "(2, 2) is not contained in (2, 1)"),
        ((1, 2), (), ValueError, "partition parts must be weakly decreasing, got (1, 2)"),
        ((2,), (0,), ValueError, "partition parts must be positive integers, got (0,)"),
    ],
)
def test_skew_shape_errors_keep_type_and_message(outer, inner, error, message):
    with pytest.raises(error) as info:
        SkewShape(outer, inner)
    assert type(info.value) is error
    assert str(info.value) == message


def test_skew_shape_conjugate_equals_a_validated_transpose():
    for n in range(11):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for alpha in partitions_of(k):
                    if not contains(lam, alpha):
                        continue
                    shape = SkewShape(lam, alpha)
                    flipped = shape.conjugate()
                    assert flipped == SkewShape(conjugate(lam), conjugate(alpha))
                    assert flipped.conjugate() == shape
